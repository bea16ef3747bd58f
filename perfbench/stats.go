package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the percentile rule: the highest of p99.9, p99, p90
// and p50 that still has at least ten samples beyond it. A tail read
// from fewer samples is one outlier, not a percentile. It returns 0
// when n is below 20, where not even the median has ten samples above.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of xs, leaving xs as it
// is. It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		xs = append([]float64(nil), xs...)
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the middle of xs, or the mean of the two middle values
// when len(xs) is even; 0 for an empty slice. xs is left as it is.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive values; 0 for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencySummary is the median and p99 of one set of latencies, in
// milliseconds, with the sample count behind them, and the highest
// percentile the percentile rule allows for that count (tailQ) with
// its value (tail). The p99 is resolved when tailQ is at least 0.99.
type latencySummary struct {
	n           int
	p50, p99    float64
	tailQ, tail float64
}

func summarize(msSamples []float64) latencySummary {
	q := tailQuantile(len(msSamples))
	return latencySummary{
		n:     len(msSamples),
		p50:   quantile(msSamples, 0.5),
		p99:   quantile(msSamples, 0.99),
		tailQ: q,
		tail:  quantile(msSamples, q),
	}
}
