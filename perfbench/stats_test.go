package main

import "testing"

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

func TestSummarizeFallsBackToResolvedTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); s.tailQ != 0.9 || s.tail != 900 {
		t.Errorf("999 samples: tail p%g = %v, want p90 = 900", 100*s.tailQ, s.tail)
	}
	xs = append(xs, 1000)
	if s := summarize(xs); s.tailQ != 0.99 || s.tail != s.p99 || s.n != 1000 {
		t.Errorf("1000 samples: tail p%g = %v, p99 %v, n %d", 100*s.tailQ, s.tail, s.p99, s.n)
	}
}

func TestSummarizeTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.p50 != 500 || s.p99 != 990 {
		t.Errorf("summarize(1..1000) = p50 %v p99 %v", s.p50, s.p99)
	}
}

func TestMedianOfEvenCountIsMidpoint(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 2}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{1, 10, 2, 4}, 3},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input")
			}
		}
	}
}
