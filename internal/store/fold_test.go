package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/witch"
)

// floatProfile is one batch with non-integer waste and use, drawn from
// a small per-program signature pool so most pairs are fed by several
// sources: summed in another order, their totals differ in the last
// bits.
func floatProfile(rng *rand.Rand, tool, program string) *witch.Profile {
	n := 1 + rng.Intn(5)
	pairs := make([]witch.Pair, 0, n)
	seen := make(map[int]bool)
	for len(pairs) < n {
		k := rng.Intn(12)
		if seen[k] {
			continue
		}
		seen[k] = true
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("%s:s%02d", program, k),
			Dst:   fmt.Sprintf("%s:d%02d", program, k),
			Chain: fmt.Sprintf("main->s%02d->d%02d", k, k),
			Waste: float64(rng.Intn(10)) + 0.1*float64(1+rng.Intn(3)),
			Use:   rng.Float64(),
		})
	}
	return witch.NewProfile(witch.Profile{
		Program: program, Tool: tool, Waste: rng.Float64(), Use: 0.1 * float64(1+rng.Intn(3)),
		Health: witch.Health{SignalsLost: uint64(rng.Intn(3)), EffectiveRegs: 1 + rng.Intn(4), Degraded: rng.Intn(5) == 0},
	}, pairs)
}

// render is the byte form a view is compared in: the compact JSON the
// daemon serves, or "nil" for an empty view.
func render(t *testing.T, p *witch.Profile) []byte {
	t.Helper()
	if p == nil {
		return []byte("nil")
	}
	var buf bytes.Buffer
	if err := p.WriteJSONCompact(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFoldOrderDeterministic: one pair fed by three partitions carrying
// 0.1, 0.2 and 0.3 sums to a different double in a different order, so
// uncached folds must sum sources in one fixed order — partitions by
// id — for repeated renders to be byte-identical.
func TestFoldOrderDeterministic(t *testing.T) {
	at := time.Unix(1700000000, 0)
	s := New(Config{Now: func() time.Time { return at }, NoCache: true})
	for i, id := range []string{"c", "a", "b"} {
		w := []float64{0.3, 0.1, 0.2}[i]
		s.IngestKeyedAt(id, witch.NewProfile(witch.Profile{Program: "p", Tool: "dead", Waste: w, Use: w}, []witch.Pair{
			{Src: "s", Dst: "d", Chain: "s->d", Waste: w, Use: w},
		}), at)
	}
	first := render(t, s.Query(0).Snapshot("dead", ""))
	for i := 0; i < 50; i++ {
		if got := render(t, s.Query(0).Snapshot("dead", "")); !bytes.Equal(got, first) {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
	a, b, c := 0.1, 0.2, 0.3 // variables: constant arithmetic would be exact
	if got, want := s.Query(0).Snapshot("dead", "p").TopPairs(0)[0].Waste, (a+b)+c; got != want {
		t.Fatalf("waste %v, want %v (partitions a, b, c in id order)", got, want)
	}
}

// TestHealthWithoutPairFold: Store.Health, read from the partitions'
// group scalars, equals the Health of the full fold, across keyed and
// unkeyed partitions, live buckets and the rollup.
func TestHealthWithoutPairFold(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	s := New(Config{Window: time.Minute, Buckets: 4, Now: func() time.Time { return clock }})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		s.IngestKeyedAt([]string{"", "a", "b"}[i%3], floatProfile(rng, "dead", fmt.Sprintf("p%d", i%4)), clock)
		clock = clock.Add(37 * time.Second)
	}
	if s.Stats().EvictedBuckets == 0 {
		t.Fatal("setup: nothing rolled up")
	}
	h, n := s.Health()
	wh, wn := s.Query(0).Health()
	if h != wh || n != wn {
		t.Fatalf("Health() = %+v, %d; the fold's = %+v, %d", h, n, wh, wn)
	}
	if n != 40 {
		t.Fatalf("Health covers %d profiles, want 40", n)
	}
}

// TestFoldReuseMatchesNoCache: a seeded random mix of keyed and
// unkeyed ingests with non-integer waste, clock advances that evict
// buckets, partition replacements and restores, checked after every
// step: each view of the cached store, whose misses refold only the
// groups whose sources moved, is byte-identical to the same view of an
// uncached store that folds everything from scratch.
func TestFoldReuseMatchesNoCache(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	cfg := Config{Window: time.Minute, Buckets: 30, Now: func() time.Time { return clock }}
	cached := New(cfg)
	cfg.NoCache = true
	oracle := New(cfg)
	both := []*Store{cached, oracle}

	rng := rand.New(rand.NewSource(1))
	tools := []string{"dead", "silent"}
	programs := []string{"p0", "p1", "p2", "p3"}
	pushers := []string{"", "a", "b", "c"}
	windows := []time.Duration{0, 15 * time.Minute, 60 * time.Minute}
	var kinds [4]int
	for step := 0; step < 300; step++ {
		switch r := rng.Intn(20); {
		case r < 13:
			kinds[0]++
			id := pushers[rng.Intn(len(pushers))]
			p := floatProfile(rng, tools[rng.Intn(len(tools))], programs[rng.Intn(len(programs))])
			for _, s := range both {
				s.IngestKeyedAt(id, p, clock)
			}
		case r < 17:
			kinds[1]++
			clock = clock.Add(time.Duration(rng.Intn(9*60)) * time.Second)
		case r < 19:
			kinds[2]++
			id, from := pushers[1+rng.Intn(3)], pushers[1+rng.Intn(3)]
			drop := rng.Intn(4) == 0
			for _, s := range both {
				var img *PartitionImage
				if !drop {
					img = s.PartitionImage(from)
				}
				s.ReplacePartition(id, img)
			}
		default:
			kinds[3]++
			for _, s := range both {
				var buf bytes.Buffer
				if err := s.Snapshot(&buf, 0, nil); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Restore(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, w := range windows {
			qc, qo := cached.Query(w), oracle.Query(w)
			for _, tool := range tools {
				for _, prog := range append([]string{""}, programs...) {
					if c, o := render(t, qc.Snapshot(tool, prog)), render(t, qo.Snapshot(tool, prog)); !bytes.Equal(c, o) {
						t.Fatalf("step %d window %v %s/%q: cached Snapshot\n%s\nuncached\n%s", step, w, tool, prog, c, o)
					}
					if c, o := render(t, qc.SnapshotTop(tool, prog, 3)), render(t, qo.SnapshotTop(tool, prog, 3)); !bytes.Equal(c, o) {
						t.Fatalf("step %d window %v %s/%q: cached SnapshotTop\n%s\nuncached\n%s", step, w, tool, prog, c, o)
					}
				}
			}
		}
	}
	if ev := cached.Stats().EvictedBuckets; ev == 0 || kinds[2] == 0 || kinds[3] == 0 {
		t.Fatalf("sequence too tame: %d evictions, step kinds %v", ev, kinds)
	}
}

// TestFoldReuseRace: concurrent ingest (keyed and unkeyed, with a
// moving clock that evicts) against concurrent windowed and all-time
// queries. Run under -race. Once quiet, every window must render as an
// uncached fold of the same state does.
func TestFoldReuseRace(t *testing.T) {
	var clockNs atomic.Int64
	clockNs.Store(time.Unix(1700000000, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, clockNs.Load()) }
	cfg := Config{Window: 10 * time.Millisecond, Buckets: 4, Now: now}
	s := New(cfg)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			id := []string{"", "a", "b", "c"}[g]
			for i := 0; i < 150; i++ {
				s.IngestKeyedAt(id, floatProfile(rng, "dead", fmt.Sprintf("p%d", rng.Intn(3))), now())
				if i%10 == 0 {
					clockNs.Add(int64(7 * time.Millisecond))
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(w time.Duration) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := s.Query(w)
				q.SnapshotTop("dead", "", 5)
				q.Snapshot("dead", "p1")
			}
		}(time.Duration(g) * 15 * time.Millisecond)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	cfg.NoCache = true
	oracle := New(cfg)
	if _, _, err := oracle.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for _, w := range []time.Duration{0, 15 * time.Millisecond, 30 * time.Millisecond} {
		for _, prog := range []string{"", "p0", "p1", "p2"} {
			if c, o := render(t, s.Query(w).Snapshot("dead", prog)), render(t, oracle.Query(w).Snapshot("dead", prog)); !bytes.Equal(c, o) {
				t.Fatalf("window %v %q: cached\n%s\nuncached\n%s", w, prog, c, o)
			}
		}
	}
}

// BenchmarkQueryAfterIngest is a query-workload cache miss: the
// 125k-pair seed (50 programs × 2,500 pairs spread over 150 one-minute
// buckets, so part of it has rolled up), one 20-pair keyed ingest, then
// the all-time Query that ingest invalidated.
func BenchmarkQueryAfterIngest(b *testing.B) {
	base := time.Unix(1700000000, 0)
	clock := base
	s := New(Config{Window: time.Minute, Buckets: 60, Now: func() time.Time { return clock }})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		clock = base.Add(-150*time.Minute + time.Duration(i)*3*time.Minute)
		s.IngestAt(seedProfile(rng, fmt.Sprintf("qprog-%02d", i), 2500), clock)
	}
	clock = base
	trickle := seedProfile(rng, "qprog-07", 20)
	s.Query(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IngestKeyedAt("pusher", trickle, clock)
		if s.Query(0).Profiles() == 0 {
			b.Fatal("empty query")
		}
	}
}

func seedProfile(rng *rand.Rand, program string, n int) *witch.Profile {
	pairs := make([]witch.Pair, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("%s_store_%06d", program, i),
			Dst:   fmt.Sprintf("%s_load_%06d", program, i),
			Chain: fmt.Sprintf("%s:s%06d->l%06d", program, i, i),
			Waste: float64(rng.Intn(200)), Use: float64(rng.Intn(200)),
		})
	}
	return witch.NewProfile(witch.Profile{Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1}, pairs)
}
