package agg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/witch"
)

// topBenchAgg: 20k distinct pairs — big enough that full-sort vs
// partial-selection separates cleanly, small enough for -benchtime
// 1000x CI legs.
func topBenchAgg(b *testing.B) *Aggregator {
	b.Helper()
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	a := New()
	pairs := make([]witch.Pair, 0, n)
	for k := 0; k < n; k++ {
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("store_%06d", k),
			Dst:   fmt.Sprintf("load_%06d", k),
			Chain: fmt.Sprintf("s%06d->l%06d", k, k),
			Waste: rng.Float64() * 1000,
			Use:   rng.Float64() * 1000,
		})
	}
	a.Merge(witch.NewProfile(witch.Profile{
		Program: "bench", Tool: string(witch.DeadStores), Waste: 1, Use: 1,
	}, pairs))
	return a
}

// BenchmarkTopPairsFullSort is the pre-fast-path /v1/top cost: rank
// every pair to serve 20.
func BenchmarkTopPairsFullSort(b *testing.B) {
	a := topBenchAgg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := a.Snapshot(string(witch.DeadStores), "bench")
		if len(p.TopPairs(20)) != 20 {
			b.Fatal("short result")
		}
	}
}

// BenchmarkTopPairsHeapSelect is the same query through the bounded
// heap: O(pairs · log n) comparisons and a 20-element result
// allocation instead of sorting 20k pairs.
func BenchmarkTopPairsHeapSelect(b *testing.B) {
	a := topBenchAgg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := a.SnapshotTop(string(witch.DeadStores), "bench", 20)
		if len(p.TopPairs(0)) != 20 {
			b.Fatal("short result")
		}
	}
}
