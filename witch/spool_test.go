package witch

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spoolAppend is a test shorthand that fails on any append error.
func spoolAppend(t *testing.T, s *spool, seq uint64, body string) {
	t.Helper()
	if _, err := s.append(seq, []byte(body)); err != nil {
		t.Fatalf("append(%d): %v", seq, err)
	}
}

// TestSpoolCrashReplayOrderAndAckFloor is the kill -9 property pair:
// after an unsynced abandon, a reopened spool replays exactly the
// unacknowledged entries, oldest first, and an acked LSN is never seen
// again — across any number of crashes.
func TestSpoolCrashReplayOrderAndAckFloor(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 20; seq++ {
		spoolAppend(t, s, seq, fmt.Sprintf("body-%02d", seq))
	}
	// Ack the first five (their LSNs are dense from the journal floor).
	chunk, err := s.readChunk(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ack(chunk[4].lsn); err != nil {
		t.Fatal(err)
	}
	s.abandon() // kill -9: no sync, no close

	s, err = openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pending(); got != 15 {
		t.Fatalf("pending after crash = %d, want 15", got)
	}
	chunk, err = s.readChunk(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 15 {
		t.Fatalf("replayed %d entries, want 15", len(chunk))
	}
	for i, e := range chunk {
		wantSeq := uint64(6 + i)
		if e.seq != wantSeq || string(e.body) != fmt.Sprintf("body-%02d", wantSeq) {
			t.Fatalf("replay[%d] = (seq %d, %q), want seq %d — acked entry replayed or order lost",
				i, e.seq, e.body, wantSeq)
		}
	}

	// Second crash after acking everything: the next incarnation owes
	// the daemon nothing.
	if err := s.ack(chunk[len(chunk)-1].lsn); err != nil {
		t.Fatal(err)
	}
	s.abandon()
	s, err = openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pending(); got != 0 {
		t.Fatalf("pending after full ack + crash = %d, want 0", got)
	}
	if chunk, err = s.readChunk(100); err != nil || len(chunk) != 0 {
		t.Fatalf("replay after full ack: %d entries, err %v", len(chunk), err)
	}
	// Appends after recovery land above the acked floor and replay.
	spoolAppend(t, s, 21, "body-21")
	if chunk, err = s.readChunk(100); err != nil || len(chunk) != 1 || chunk[0].seq != 21 {
		t.Fatalf("post-recovery append not replayable: %v, err %v", chunk, err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpoolIdentityAndSeqFloorSurviveCrash: the durable pusher identity
// and the sequence reservation must survive kill -9, so the idempotency
// key space is never reused.
func TestSpoolIdentityAndSeqFloorSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := s.meta.PusherID
	if id == "" {
		t.Fatal("fresh spool has no pusher identity")
	}
	if err := s.reserveSeq(5000); err != nil {
		t.Fatal(err)
	}
	s.abandon()

	s, err = openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.meta.PusherID != id {
		t.Fatalf("pusher identity changed across crash: %q -> %q", id, s.meta.PusherID)
	}
	if s.meta.SeqFloor < 5000 {
		t.Fatalf("sequence floor regressed to %d — sequences could be reused", s.meta.SeqFloor)
	}
}

// TestSpoolEvictionBoundsAndCounts: the disk bound sheds oldest-first,
// counts every shed entry, keeps the count across crashes, and the
// survivors replay in order.
func TestSpoolEvictionBoundsAndCounts(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, 128, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 40)
	var evicted uint64
	for seq := uint64(1); seq <= 60; seq++ {
		n, err := s.append(seq, body)
		if err != nil {
			t.Fatalf("append(%d): %v", seq, err)
		}
		evicted += n
	}
	if evicted == 0 {
		t.Fatal("60x48-byte entries under a 512-byte bound evicted nothing")
	}
	if got := s.meta.Evicted; got != evicted {
		t.Fatalf("meta.Evicted = %d, want %d", got, evicted)
	}
	if s.pending()+evicted != 60 {
		t.Fatalf("pending %d + evicted %d != 60: entries leaked", s.pending(), evicted)
	}
	chunk, err := s.readChunk(100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(chunk)) != s.pending() {
		t.Fatalf("replay found %d entries, pending says %d", len(chunk), s.pending())
	}
	// Oldest-first eviction: the survivors are the newest, contiguous
	// through seq 60, still in append order.
	for i := 1; i < len(chunk); i++ {
		if chunk[i].seq != chunk[i-1].seq+1 {
			t.Fatalf("survivors not contiguous: %d then %d", chunk[i-1].seq, chunk[i].seq)
		}
	}
	if chunk[len(chunk)-1].seq != 60 {
		t.Fatalf("newest survivor is seq %d, want 60 — eviction shed the wrong end", chunk[len(chunk)-1].seq)
	}

	s.abandon()
	s, err = openSpool(dir, 128, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.meta.Evicted != evicted {
		t.Fatalf("lifetime eviction count lost across crash: %d, want %d", s.meta.Evicted, evicted)
	}
}

// TestJitterBounds pins the two jitter envelopes: full jitter in
// (0, d], equal jitter in [d/2, d], and the Retry-After floor honored
// exactly with upward-only spread.
func TestJitterBounds(t *testing.T) {
	p := &Pusher{rng: rand.New(rand.NewSource(7))}
	const d = 400 * time.Millisecond
	for i := 0; i < 2000; i++ {
		if v := p.jitterFull(d); v <= 0 || v > d {
			t.Fatalf("jitterFull draw %v outside (0, %v]", v, d)
		}
		if v := p.jitterEqual(d); v < d/2 || v > d {
			t.Fatalf("jitterEqual draw %v outside [%v, %v]", v, d/2, d)
		}
	}
	if p.jitterFull(0) != 0 || p.jitterEqual(0) != 0 {
		t.Fatal("zero interval must stay zero")
	}
}

// TestParseRetryAfter covers both RFC 9110 forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("5"); d != 5*time.Second {
		t.Fatalf("delay-seconds: %v", d)
	}
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= time.Second || d > 3*time.Second {
		t.Fatalf("HTTP-date 3s out parsed as %v", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	for _, h := range []string{"", "0", "-3", "soon", past} {
		if d := parseRetryAfter(h); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", h, d)
		}
	}
}

// TestPusherSpoolConcurrentExactlyOnce is the -race property test for
// the whole client pipeline: concurrent Push against a daemon that
// fails every third request, with spill, replay, and Close racing. No
// entry may be lost, none delivered twice, and the pusher's ledger must
// balance exactly.
func TestPusherSpoolConcurrentExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	acked := map[uint64]int{}
	var reqN atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseUint(r.Header.Get(PusherSeqHeader), 10, 64)
		if err != nil {
			t.Errorf("ingest without a sequence header: %v", err)
			http.Error(w, "no seq", http.StatusBadRequest)
			return
		}
		if reqN.Add(1)%3 == 0 {
			http.Error(w, "induced", http.StatusInternalServerError)
			return
		}
		mu.Lock()
		acked[seq]++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"profiles":1}`))
	}))
	defer ts.Close()

	p, err := NewPusher(PusherOptions{
		URL:               ts.URL,
		Queue:             256,
		Backoff:           time.Millisecond,
		BreakerThreshold:  1000, // keep sending through induced failures
		Logf:              func(string, ...any) {},
		SpoolDir:          t.TempDir(),
		SpoolSegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushTestProfile(t)

	const workers, perWorker = 4, 30
	var wg sync.WaitGroup
	var accepted atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if p.Push(prof) {
					accepted.Add(1)
				}
				if i%7 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	// Drain: every accepted profile must resolve to an ack (the server
	// only fails transiently, the spool never overflows).
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.Stats()
		if st.Sent == accepted.Load() && st.SpoolPending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never drained: accepted %d, stats %+v", accepted.Load(), st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	if st.Enqueued != st.Sent+st.Dropped+st.SpoolPending {
		t.Fatalf("ledger does not balance: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(acked)) != accepted.Load() {
		t.Fatalf("daemon acked %d distinct sequences, client had %d accepted", len(acked), accepted.Load())
	}
	for seq, n := range acked {
		if n != 1 {
			t.Fatalf("sequence %d acked %d times — an acknowledged entry was re-sent", seq, n)
		}
	}
}

// TestPusherSpoolRestartResumesWhereItDied: kill -9 a pusher with a
// spooled backlog (daemon down), restart it against a healthy daemon,
// and the backlog arrives complete, in order, under the same pusher
// identity, with no sequence reused by post-restart pushes.
func TestPusherSpoolRestartResumesWhereItDied(t *testing.T) {
	dir := t.TempDir()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))

	p, err := NewPusher(PusherOptions{
		URL:              down.URL,
		Queue:            64,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
		Logf:             func(string, ...any) {},
		SpoolDir:         dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	firstID := p.ID()
	prof := pushTestProfile(t)
	const n = 12
	for i := 0; i < n; i++ {
		if !p.Push(prof) {
			t.Fatalf("push %d rejected", i)
		}
	}
	// Wait until the backlog is durably parked, then die without sync.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().SpoolPending < n {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never spooled: %+v", p.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.Abort()
	down.Close()

	var mu sync.Mutex
	var seqs []uint64
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.Header.Get(PusherSeqHeader), 10, 64)
		if got := r.Header.Get(PusherIDHeader); got != firstID {
			t.Errorf("pusher identity changed across restart: %q -> %q", firstID, got)
		}
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"profiles":1}`))
	}))
	defer up.Close()

	p2, err := NewPusher(PusherOptions{
		URL:      up.URL,
		Queue:    64,
		Backoff:  time.Millisecond,
		Logf:     func(string, ...any) {},
		SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != firstID {
		t.Fatalf("restarted pusher identity %q, want %q", p2.ID(), firstID)
	}
	awaitSent := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := p2.Stats()
			if st.Sent == want && st.SpoolPending == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never reached %d sent: %+v", want, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	awaitSent(n)
	if st := p2.Stats(); st.Replayed != n {
		t.Fatalf("replayed %d, want the %d spooled entries", st.Replayed, n)
	}
	mu.Lock()
	if len(seqs) != n {
		mu.Unlock()
		t.Fatalf("daemon saw %d deliveries, want %d", len(seqs), n)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			mu.Unlock()
			t.Fatalf("replay out of order or duplicated: %v", seqs)
		}
	}
	maxReplayed := seqs[n-1]
	mu.Unlock()

	// One more push after restart: its sequence must be above every
	// spooled one (the durable reservation at work).
	if !p2.Push(prof) {
		t.Fatal("post-restart push rejected")
	}
	awaitSent(n + 1)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != n+1 {
		t.Fatalf("daemon saw %d deliveries after the extra push, want %d", len(seqs), n+1)
	}
	if seqs[n] <= maxReplayed {
		t.Fatalf("post-restart push reused sequence %d (max replayed %d)", seqs[n], maxReplayed)
	}
}

// TestPusherSpoolRejectedEntryDoesNotWedge: a permanent verdict (413)
// on sequence 1 retires that one profile as a "rejected" drop — no
// retries, no breaker charge — whether it was being delivered directly
// or replayed from the spool head, and the other four still arrive.
func TestPusherSpoolRejectedEntryDoesNotWedge(t *testing.T) {
	for _, replay := range []bool{false, true} {
		t.Run(map[bool]string{false: "direct", true: "replay"}[replay], func(t *testing.T) {
			var down atomic.Bool
			down.Store(replay)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if down.Load() {
					http.Error(w, "down", http.StatusServiceUnavailable)
					return
				}
				if r.Header.Get(PusherSeqHeader) == "1" {
					http.Error(w, "too large", http.StatusRequestEntityTooLarge)
					return
				}
				w.Write([]byte(`{"profiles":1}`))
			}))
			defer ts.Close()

			p, err := NewPusher(PusherOptions{
				URL:              ts.URL,
				Backoff:          time.Millisecond,
				BreakerThreshold: 2,
				BreakerCooldown:  5 * time.Millisecond,
				Logf:             func(string, ...any) {},
				SpoolDir:         t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			prof := pushTestProfile(t)
			const n = 5
			for i := 0; i < n; i++ {
				if !p.Push(prof) {
					t.Fatalf("push %d rejected", i)
				}
			}
			await := func(done func(PusherStats) bool) PusherStats {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for {
					st := p.Stats()
					if done(st) {
						return st
					}
					if time.Now().After(deadline) {
						t.Fatalf("timed out: %+v", st)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			trips := uint64(0)
			if replay {
				trips = await(func(st PusherStats) bool { return st.SpoolPending == n }).BreakerTrips
				down.Store(false)
			}
			st := await(func(st PusherStats) bool { return st.Sent+st.Dropped == n && st.SpoolPending == 0 })
			if st.Sent != n-1 || st.DroppedByReason[DropRejected] != 1 || st.SpoolPending != 0 {
				t.Fatalf("want %d sent, 1 rejected, nothing pending: %+v", n-1, st)
			}
			if st.BreakerTrips != trips {
				t.Fatalf("the rejection charged the breaker: %d trips, want %d (%+v)", st.BreakerTrips, trips, st)
			}
		})
	}
}

// pushTestProfile builds one real profile for pusher tests.
func pushTestProfile(t *testing.T) *Profile {
	t.Helper()
	prog, err := Workload("listing3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Run(prog, Options{Tool: DeadStores, Period: 97, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}
