package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/witch"
)

// fakeClock is an injectable, race-safe clock.
type fakeClock struct {
	ns atomic.Int64
}

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) now() time.Time                    { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) time.Time { return time.Unix(0, c.ns.Add(int64(d))) }

func synth(program string, waste float64) *witch.Profile {
	return witch.NewProfile(witch.Profile{
		Program:    program,
		Tool:       "dead",
		Redundancy: waste / (waste + 8),
		Waste:      waste,
		Use:        8,
	}, []witch.Pair{{
		Src: program + ":f:1", Dst: program + ":g:2",
		Chain: "main -> f -> g", Waste: waste, Use: 8,
	}})
}

// TestRetentionEvictsAndRollsUp drives ingest across many windows and
// checks that (a) live memory stays bounded at the ring size while
// evicted buckets fold into the rollup, and (b) an unbounded query
// still sees every profile ever ingested — retention moves data, it
// never loses it.
func TestRetentionEvictsAndRollsUp(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})

	const windows = 12
	for i := 0; i < windows; i++ {
		// A distinct program per window keeps pair streams distinct, so
		// live pair count tracks live buckets.
		s.Ingest(synth(fmt.Sprintf("prog-%02d", i), 16))
		clk.advance(time.Minute)
	}

	st := s.Stats()
	if st.LiveBuckets > 4 {
		t.Fatalf("live buckets %d exceed ring size 4", st.LiveBuckets)
	}
	if st.EvictedBuckets != windows-4 {
		t.Fatalf("evicted %d buckets, want %d", st.EvictedBuckets, windows-4)
	}
	if st.LivePairs > 4 {
		t.Fatalf("live pairs %d not bounded by ring", st.LivePairs)
	}
	if st.RollupPairs != windows-4 {
		t.Fatalf("rollup holds %d pairs, want %d", st.RollupPairs, windows-4)
	}
	if st.Ingested != windows {
		t.Fatalf("ingested %d, want %d", st.Ingested, windows)
	}

	all := s.Query(0)
	if got := all.Profiles(); got != windows {
		t.Fatalf("unbounded query sees %d profiles, want %d", got, windows)
	}
	snap := all.Snapshot("dead", "")
	if snap.Waste != 16*windows {
		t.Fatalf("rollup lost waste: %g, want %d", snap.Waste, 16*windows)
	}
}

// TestQueryWindowSelectsBuckets: a trailing window only sees the
// buckets overlapping it.
func TestQueryWindowSelectsBuckets(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 10, Now: clk.now})

	s.Ingest(synth("old", 1))
	clk.advance(5 * time.Minute)
	s.Ingest(synth("new", 2))

	recent := s.Query(2*time.Minute).Snapshot("dead", "")
	if recent == nil || recent.Waste != 2 {
		t.Fatalf("trailing window should see only the new profile, got %+v", recent)
	}
	both := s.Query(10*time.Minute).Snapshot("dead", "")
	if both.Waste != 3 {
		t.Fatalf("wide window should see both, got waste %g", both.Waste)
	}
	if s.Query(2*time.Minute).Snapshot("load", "") != nil {
		t.Fatal("unknown tool should be nil")
	}
}

// TestSameWindowMergesInPlace: profiles landing in one window share a
// bucket and merge there.
func TestSameWindowMergesInPlace(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	for i := 0; i < 10; i++ {
		s.Ingest(synth("p", 4))
	}
	st := s.Stats()
	if st.LiveBuckets != 1 || st.EvictedBuckets != 0 {
		t.Fatalf("stats = %+v, want one live bucket, no eviction", st)
	}
	if got := s.Query(0).Snapshot("dead", "").Waste; got != 40 {
		t.Fatalf("in-bucket merge waste %g, want 40", got)
	}
}

// TestConcurrentIngestQueryEvict is the store's half of the race
// satellite: 8 ingesters race a moving clock (forcing evictions), while
// queries and stats readers run throughout. Afterwards every ingested
// profile must be accounted for across live buckets + rollup.
func TestConcurrentIngestQueryEvict(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 3, Now: clk.now})

	const (
		ingesters = 8
		perG      = 60
	)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Ingest(synth(fmt.Sprintf("prog-%d", g), 2))
				if i%10 == 9 {
					clk.advance(20 * time.Second)
				}
			}
		}(g)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if snap := s.Query(2*time.Minute).Snapshot("dead", ""); snap != nil {
					_ = snap.TopPairs(3)
				}
				_ = s.Stats()
			}
		}()
	}
	wg.Wait()

	const total = ingesters * perG
	if got := s.Query(0).Profiles(); got != total {
		t.Fatalf("lost profiles across eviction: %d, want %d", got, total)
	}
	if got := s.Query(0).Snapshot("dead", "").Waste; got != 2*total {
		t.Fatalf("lost waste across eviction: %g, want %d", got, 2*total)
	}
	st := s.Stats()
	if st.EvictedBuckets == 0 {
		t.Fatal("expected evictions under the moving clock")
	}
	if st.LiveBuckets > 3 {
		t.Fatalf("live buckets %d exceed ring size", st.LiveBuckets)
	}
}

// TestSnapshotRestoreRoundTrip: snapshot → restore reproduces the full
// retention state — ring layout, rollup, counters, and the caller's
// anchor — so a recovered daemon answers queries identically.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	const windows = 9 // > ring size: rollup is populated too
	for i := 0; i < windows; i++ {
		s.Ingest(synth(fmt.Sprintf("prog-%02d", i), 16))
		clk.advance(time.Minute)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 42, []byte("extra-blob")); err != nil {
		t.Fatal(err)
	}
	r := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	anchor, extra, err := r.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if anchor != 42 {
		t.Fatalf("anchor = %d, want 42", anchor)
	}
	if string(extra) != "extra-blob" {
		t.Fatalf("extra = %q, want %q", extra, "extra-blob")
	}

	if got, want := r.Stats(), s.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	for _, window := range []time.Duration{0, 2 * time.Minute, 10 * time.Minute} {
		a := s.Query(window).Snapshot("dead", "")
		b := r.Query(window).Snapshot("dead", "")
		if (a == nil) != (b == nil) {
			t.Fatalf("window %v: presence drifted", window)
		}
		if a == nil {
			continue
		}
		var wa, wb bytes.Buffer
		if err := a.WriteJSON(&wa); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteJSON(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatalf("window %v: restored profile drifted:\n%s\nvs\n%s", window, wb.String(), wa.String())
		}
	}
}

// TestSnapshotRestoreGeometryChange: restoring into a ring with a
// different window width folds every bucket into the rollup — windowed
// placement is lost, but the all-time view stays exact.
func TestSnapshotRestoreGeometryChange(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	const n = 6
	for i := 0; i < n; i++ {
		s.Ingest(synth(fmt.Sprintf("prog-%d", i), 16))
		clk.advance(time.Minute)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}

	r := New(Config{Window: time.Hour, Buckets: 2, Now: clk.now})
	if _, _, err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := r.Query(0).Profiles(); got != n {
		t.Fatalf("all-time view lost profiles under reconfiguration: %d, want %d", got, n)
	}
	if got := r.Query(0).Snapshot("dead", "").Waste; got != 16*n {
		t.Fatalf("all-time waste %g, want %d", got, 16*n)
	}
}

// TestRestoreRejectsBadSnapshots: garbage and version-mismatched
// snapshots error out (the recovery layer falls back to older ones)
// instead of restoring nonsense.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restored without error")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snapshotFile{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("future snapshot version restored without error")
	}
}

// TestSnapshotRacesEviction: snapshots run concurrently with ingest
// that is continuously displacing and folding buckets. The exactly-once
// guarantee under test: a bucket mid-fold appears in a snapshot on
// exactly one side of the rollup boundary. Each pair is ingested once
// with waste 16, so any double-count shows up as a pair whose waste
// exceeds 16 in some snapshot, and any loss shows up in the final one.
func TestSnapshotRacesEviction(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Window: time.Minute, Buckets: 2, Now: clk.now}
	s := New(cfg)

	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Ingest(synth(fmt.Sprintf("prog-%03d", i), 16))
			// Every other ingest starts a new window, displacing a bucket
			// and racing its fold against the snapshotter.
			clk.advance(31 * time.Second)
		}
	}()

	var snaps [][]byte
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf, uint64(len(snaps)), nil); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	// One more after ingest quiesced: this one must be exact.
	var final bytes.Buffer
	if err := s.Snapshot(&final, uint64(len(snaps)), nil); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, final.Bytes())

	for i, snap := range snaps {
		r := New(cfg)
		if _, _, err := r.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		prof := r.Query(0).Snapshot("dead", "")
		if prof == nil {
			continue // taken before the first merge landed
		}
		for _, pair := range prof.TopPairs(0) {
			if pair.Waste > 16 {
				t.Fatalf("snapshot %d: pair %s has waste %g > 16: bucket counted on both sides of the rollup", i, pair.Src, pair.Waste)
			}
		}
	}

	r := New(cfg)
	if _, _, err := r.Restore(bytes.NewReader(final.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := r.Query(0).Profiles(); got != n {
		t.Fatalf("final snapshot accounts for %d profiles, want %d", got, n)
	}
	if got := len(r.Query(0).Snapshot("dead", "").TopPairs(0)); got != n {
		t.Fatalf("final snapshot has %d pairs, want %d", got, n)
	}
	if st := r.Stats(); st.EvictedBuckets == 0 {
		t.Fatal("race never exercised eviction")
	}
}

// TestSnapshotChecksumDetectsCorruption: every snapshot carries a
// CRC-32C trailer; a single flipped byte anywhere in the payload fails
// the restore loudly (the recovery layer then falls back to an older
// snapshot), and so does a snapshot whose trailer is missing or whose
// magic is damaged — restore fails closed, never loading unverified
// bytes.
func TestSnapshotChecksumDetectsCorruption(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	for i := 0; i < 6; i++ {
		s.Ingest(synth(fmt.Sprintf("prog-%d", i), 16))
		clk.advance(time.Minute)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 7, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Pristine bytes restore.
	if _, _, err := New(Config{}).Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Bit rot anywhere in the body is caught by the trailer.
	for _, pos := range []int{8, len(snap) / 2, len(snap) - 12} {
		bad := append([]byte(nil), snap...)
		bad[pos] ^= 0x40
		if _, _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d restored silently", pos)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corruption at byte %d failed for the wrong reason: %v", pos, err)
		}
	}
	// A corrupt trailer itself also fails closed.
	bad := append([]byte(nil), snap...)
	bad[len(bad)-6] ^= 0x01
	if _, _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt trailer restored silently")
	}
	// No trailer: rejected, not loaded unverified.
	if _, _, err := New(Config{}).Restore(bytes.NewReader(snap[:len(snap)-8])); err == nil {
		t.Fatal("trailer-less snapshot restored unverified")
	}
	// Body corrupted along with the trailer magic: the damaged magic
	// must not turn the checksum off. The flip is one gob still decodes
	// (silently wrong aggregates), so only the trailer can catch it.
	body := snap[:len(snap)-8]
	pos := -1
	for i := len(body) / 2; i < len(body) && pos < 0; i++ {
		b := append([]byte(nil), body...)
		b[i] ^= 0x01
		var img snapshotFile
		if gob.NewDecoder(bytes.NewReader(b)).Decode(&img) == nil {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("no gob-decodable corruption found")
	}
	bad = append([]byte(nil), snap...)
	bad[pos] ^= 0x01
	bad[len(bad)-1] ^= 0x01
	if _, _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt body with a corrupt trailer magic restored silently")
	}
}

// TestKeyedPartitionsRoundTrip: keyed ingest isolates per-pusher
// partitions inside the shared retention ring, exports carry them
// separately from the unkeyed aggregate, and a PartitionImage replaces
// a partition on another store without disturbing its neighbours.
func TestKeyedPartitionsRoundTrip(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Window: time.Minute, Buckets: 4, Now: clk.now}
	s := New(cfg)
	s.IngestKeyedAt("alice", synth("prog-a", 10), clk.now())
	s.IngestKeyedAt("bob", synth("prog-b", 20), clk.now())
	s.Ingest(synth("prog-anon", 30))

	if got := s.Partitions(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Partitions() = %v, want [alice bob]", got)
	}
	if got := s.QueryPartition("alice", 0).Snapshot("dead", "").Waste; got != 10 {
		t.Fatalf("alice partition waste %g, want 10 (isolation broken)", got)
	}
	if got := s.Query(0).Snapshot("dead", "").Waste; got != 60 {
		t.Fatalf("merged query waste %g, want 60", got)
	}

	exp := s.Export(0)
	if exp.Unkeyed == nil || len(exp.Parts) != 2 {
		t.Fatalf("export shape: unkeyed=%v parts=%d", exp.Unkeyed != nil, len(exp.Parts))
	}

	// Ship alice's image to a second store holding its own data.
	img := s.PartitionImage("alice")
	if img == nil || len(img.Buckets) == 0 {
		t.Fatalf("partition image empty: %+v", img)
	}
	r := New(cfg)
	r.IngestKeyedAt("alice", synth("prog-stale", 99), clk.now())
	r.IngestKeyedAt("carol", synth("prog-c", 5), clk.now())
	r.ReplacePartition("alice", img)
	if got := r.QueryPartition("alice", 0).Snapshot("dead", "").Waste; got != 10 {
		t.Fatalf("replaced partition waste %g, want 10 (stale copy survived?)", got)
	}
	if r.QueryPartition("alice", 0).Snapshot("dead", "").Program == "prog-stale" {
		t.Fatal("replace merged instead of replacing")
	}
	if got := r.QueryPartition("carol", 0).Snapshot("dead", "").Waste; got != 5 {
		t.Fatalf("neighbour partition disturbed: %g", got)
	}

	// Partitions survive the snapshot codec.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	if _, _, err := s2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := s2.Partitions(); len(got) != 2 {
		t.Fatalf("partitions lost in snapshot round trip: %v", got)
	}
	if got := s2.QueryPartition("bob", 0).Snapshot("dead", "").Waste; got != 20 {
		t.Fatalf("restored bob partition waste %g, want 20", got)
	}
	if got := s2.Query(0).Snapshot("dead", "").Waste; got != 60 {
		t.Fatalf("restored merged waste %g, want 60", got)
	}
}
