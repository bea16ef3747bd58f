package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/witch"
)

// syntheticAgg builds an aggregator holding n distinct pairs with
// colliding waste values (so tie-breaking paths are exercised).
func syntheticAgg(n int, seed int64) *Aggregator {
	rng := rand.New(rand.NewSource(seed))
	a := New()
	const batch = 512
	for off := 0; off < n; off += batch {
		m := batch
		if off+m > n {
			m = n - off
		}
		pairs := make([]witch.Pair, 0, m)
		for i := 0; i < m; i++ {
			k := off + i
			pairs = append(pairs, witch.Pair{
				Src:   fmt.Sprintf("store_%06d", k),
				Dst:   fmt.Sprintf("load_%06d", k),
				Chain: fmt.Sprintf("s%06d->l%06d", k, k),
				// Few distinct waste values: heavy ties.
				Waste: float64(rng.Intn(50)),
				Use:   float64(rng.Intn(100)),
			})
		}
		a.Merge(witch.NewProfile(witch.Profile{
			Program: "synthetic", Tool: string(witch.DeadStores),
			Waste: 1, Use: 1,
		}, pairs))
	}
	return a
}

// rank returns the synthetic program's pairs as SnapshotTop ranks them;
// n <= 0 ranks them all.
func rank(a *Aggregator, n int) []witch.Pair {
	p := a.SnapshotTop(string(witch.DeadStores), "synthetic", n)
	if p == nil {
		return nil
	}
	return p.TopPairs(0)
}

// TestPairsForTopMatchesFullSort: the bounded-heap selection must
// return the exact prefix of the fully sorted ranking, ties included.
func TestPairsForTopMatchesFullSort(t *testing.T) {
	for _, total := range []int{0, 1, 7, 100, 3000} {
		a := syntheticAgg(total, int64(total)+1)
		full := rank(a, 0)
		if len(full) != total {
			t.Fatalf("full ranking returned %d pairs, want %d", len(full), total)
		}
		if !sort.SliceIsSorted(full, func(i, j int) bool { return pairLess(&full[i], &full[j]) }) {
			t.Fatalf("full ranking not sorted (total=%d)", total)
		}
		for _, n := range []int{1, 2, 3, 10, 20, total - 1, total, total + 5} {
			if n <= 0 {
				continue
			}
			got := rank(a, n)
			want := full
			if n < len(full) {
				want = full[:n]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("top-%d selection (total=%d) diverges from full sort prefix", n, total)
			}
		}
	}
}

// TestSnapshotTopMatchesSnapshot: the top-n profile must be the full
// snapshot with its pair list truncated — same meta, same JSON prefix.
func TestSnapshotTopMatchesSnapshot(t *testing.T) {
	a := syntheticAgg(500, 9)
	full := a.Snapshot(string(witch.DeadStores), "synthetic")
	top := a.SnapshotTop(string(witch.DeadStores), "synthetic", 20)
	if full == nil || top == nil {
		t.Fatal("nil snapshot")
	}
	if got, want := top.TopPairs(0), full.TopPairs(20); !reflect.DeepEqual(got, want) {
		t.Fatalf("SnapshotTop pairs diverge from truncated Snapshot pairs")
	}
	if top.Waste != full.Waste || top.Use != full.Use || top.Redundancy != full.Redundancy {
		t.Fatalf("SnapshotTop meta diverges: waste %v/%v use %v/%v", top.Waste, full.Waste, top.Use, full.Use)
	}
	// n <= 0 and missing keys degrade exactly like Snapshot.
	if got := a.SnapshotTop(string(witch.DeadStores), "synthetic", 0); got == nil || len(got.TopPairs(0)) != 500 {
		t.Fatal("SnapshotTop(n<=0) should be the unbounded snapshot")
	}
	if a.SnapshotTop("no-such-tool", "", 20) != nil {
		t.Fatal("SnapshotTop of unknown tool should be nil")
	}
}

// TestRefoldReusesUnchangedGroups: Refold carries over, by pointer,
// every group whose ordered source stamps are unchanged, refolds the
// group a merge touched, and matches a MergeFrom fold of the same
// sources exactly either way.
func TestRefoldReusesUnchangedGroups(t *testing.T) {
	s1, s2 := New(), New()
	s1.Merge(synth("dead", "alpha", 0.1, 5))
	s1.Merge(synth("dead", "beta", 0.3, 4))
	s2.Merge(synth("dead", "alpha", 0.7, 6))
	s2.Merge(synth("load", "beta", 0.2, 3))
	srcs := []*Aggregator{s1, s2}
	first := Refold(srcs, nil)

	s2.Merge(synth("dead", "alpha", 0.9, 2))
	second := Refold(srcs, first)
	alpha, beta := groupKey{"dead", "alpha"}, groupKey{"dead", "beta"}
	if second.Agg.groups[beta] != first.Agg.groups[beta] || second.Agg.groups[groupKey{"load", "beta"}] != first.Agg.groups[groupKey{"load", "beta"}] {
		t.Fatal("unchanged groups were refolded, not carried over")
	}
	if second.Agg.groups[alpha] == first.Agg.groups[alpha] {
		t.Fatal("the group a merge touched was carried over stale")
	}
	// Reordering the sources changes every multi-source list.
	swapped := Refold([]*Aggregator{s2, s1}, second)
	if swapped.Agg.groups[alpha] == second.Agg.groups[alpha] {
		t.Fatal("a reordered source list was treated as unchanged")
	}

	want := New()
	for _, src := range srcs {
		want.MergeFrom(src)
	}
	for _, tool := range []string{"dead", "load"} {
		for _, prog := range []string{"", "alpha", "beta"} {
			w, g := want.Snapshot(tool, prog), second.Agg.Snapshot(tool, prog)
			if (w == nil) != (g == nil) {
				t.Fatalf("%s/%q: presence differs", tool, prog)
			}
			if w == nil {
				continue
			}
			pairsEqual(t, w.TopPairs(0), g.TopPairs(0), tool+"/"+prog)
			if w.Waste != g.Waste || w.Use != g.Use || w.Program != g.Program {
				t.Fatalf("%s/%q: scalars differ", tool, prog)
			}
		}
	}
}
