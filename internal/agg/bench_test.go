package agg_test

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/witch"
)

// benchProfile builds the merge-benchmark input: a real h264ref
// DeadStores profile (~11 pairs).
func benchProfile(b *testing.B) *witch.Profile {
	b.Helper()
	prog, err := witch.Workload("h264ref")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

// BenchmarkMerge is the steady-state ingest fold: re-merging a profile
// whose pair streams already exist, which is what a fleet pushing the
// same programs does after the first minute.
func BenchmarkMerge(b *testing.B) {
	prof := benchProfile(b)
	a := agg.New()
	a.Merge(prof)
	b.ReportMetric(float64(len(prof.TopPairs(0))), "pairs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(prof)
	}
}

// BenchmarkMergeFrom measures the bucket-fold path (retention eviction,
// query-time ring merges): an aggregator-to-aggregator fold where the
// precomputed hashes make re-hashing unnecessary.
func BenchmarkMergeFrom(b *testing.B) {
	prof := benchProfile(b)
	src := agg.New()
	src.Merge(prof)
	dst := agg.New()
	dst.MergeFrom(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MergeFrom(src)
	}
}

// BenchmarkSnapshot re-materializes the merged profile — the /v1/profile
// query path.
func BenchmarkSnapshot(b *testing.B) {
	prof := benchProfile(b)
	a := agg.New()
	a.Merge(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Snapshot(prof.Tool, prof.Program) == nil {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkSnapshotProgram is a /v1/profile miss on the query
// workload's seed: 50 programs × 2,500 pairs, one program snapshotted.
// Only that program's group is walked and ranked.
func BenchmarkSnapshotProgram(b *testing.B) {
	a := agg.New()
	for p := 0; p < 50; p++ {
		program := fmt.Sprintf("qprog-%02d", p)
		pairs := make([]witch.Pair, 0, 2500)
		for i := 0; i < 2500; i++ {
			pairs = append(pairs, witch.Pair{
				Src:   fmt.Sprintf("%s_store_%06d", program, i),
				Dst:   fmt.Sprintf("%s_load_%06d", program, i),
				Chain: fmt.Sprintf("%s:s%06d->l%06d", program, i, i),
				Waste: float64((i * 7919) % 200), Use: float64((i * 104729) % 200),
			})
		}
		a.Merge(witch.NewProfile(witch.Profile{Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1}, pairs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Snapshot(string(witch.DeadStores), "qprog-07").TopPairs(0)) != 2500 {
			b.Fatal("short snapshot")
		}
	}
}
