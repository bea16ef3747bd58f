package main

import "math"

// The rate ladder is a fixed geometric grid: rung k offers
// ladderBase × 2^(k/ladderPerOctave) batches per second. The grid is
// the same on every run and every commit, so max_ack_rate moves only in
// whole rungs (about 4.4% each). Rung 0 is the ingest reference rate.
const (
	ladderBase      = ingestRefRate
	ladderPerOctave = 16
	ladderTop       = 8 * ladderPerOctave // 38400 batches/s
)

func rungRate(k int) float64 {
	return ladderBase * math.Pow(2, float64(k)/ladderPerOctave)
}

// ladderClimb finds the highest rung in [good, hi] for which pass
// holds, given that rung good passes and assuming pass is monotone
// (true up to some rung, false above it). It climbs by coarse rungs
// until a probe fails, then bisects the last gap, so it probes
// O(log) rungs rather than every one.
func ladderClimb(good, hi, coarse int, pass func(k int) bool) int {
	bad := hi + 1
	for k := good + coarse; k <= hi; k += coarse {
		if !pass(k) {
			bad = k
			break
		}
		good = k
	}
	if bad == hi+1 && good < hi {
		// The climb stopped short of the top without a failure: the
		// rungs between the last probe and hi are still unknown.
		if pass(hi) {
			return hi
		}
		bad = hi
	}
	return ladderBisect(good, bad, pass)
}

// ladderBisect finds the pass/fail boundary between good, taken to
// pass, and bad, taken to fail, probing only the rungs strictly
// between them. It returns the highest rung found to pass (good when
// none between them does).
func ladderBisect(good, bad int, pass func(k int) bool) int {
	for bad-good > 1 {
		mid := (good + bad) / 2
		if pass(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}
