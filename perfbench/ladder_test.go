package main

import (
	"math"
	"testing"
)

func TestLadderClimbFindsLimit(t *testing.T) {
	const lo, hi = 0, 128
	for limit := lo; limit <= hi; limit++ {
		probes := 0
		got := ladderClimb(lo, hi, 16, func(k int) bool {
			if k <= lo {
				t.Fatalf("probed rung %d, known to pass", k)
			}
			probes++
			return k <= limit
		})
		if got != limit {
			t.Errorf("limit %d: climb returned %d", limit, got)
		}
		// At most eight octave steps, the top, and a bisection of
		// one octave.
		if probes > 8+1+4 {
			t.Errorf("limit %d: %d probes", limit, probes)
		}
	}
}

func TestLadderBisectStaysInside(t *testing.T) {
	for limit := 0; limit <= 20; limit++ {
		got := ladderBisect(4, 13, func(k int) bool {
			if k <= 4 || k >= 13 {
				t.Fatalf("probed rung %d outside (4, 13)", k)
			}
			return k <= limit
		})
		want := min(max(limit, 4), 12)
		if got != want {
			t.Errorf("limit %d: bisect returned %d, want %d", limit, got, want)
		}
	}
}

func TestRungRateIsGeometric(t *testing.T) {
	if r := rungRate(0); r != ladderBase {
		t.Errorf("rung 0 = %v", r)
	}
	if r := rungRate(ladderPerOctave); math.Abs(r-2*ladderBase) > 1e-9 {
		t.Errorf("rung %d = %v, want %v", ladderPerOctave, r, 2*ladderBase)
	}
}
