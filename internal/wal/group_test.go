package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestGroupCommitConcurrentAppends: many goroutines appending through
// the group committer must each get a distinct LSN, the LSN space must
// stay dense, and every acked payload must replay under exactly the LSN
// its Append returned — the same contract the per-append path gives,
// which runs here too (each caller committing its own gang of one).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	type mode struct {
		name string
		opts Options
	}
	cases := []mode{{name: "per-append"}}
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		cases = append(cases, mode{fmt.Sprintf("delay=%v", delay), Options{GroupCommit: true, MaxCommitDelay: delay}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tc.opts
			opts.SegmentBytes = 4 << 10
			j, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			const workers, per = 8, 50
			var mu sync.Mutex
			acked := make(map[uint64]string, workers*per)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						payload := fmt.Sprintf("w%d-i%d", w, i)
						lsn, err := j.Append([]byte(payload))
						if err != nil {
							t.Errorf("append %s: %v", payload, err)
							return
						}
						mu.Lock()
						if prev, dup := acked[lsn]; dup {
							t.Errorf("lsn %d acked twice: %q and %q", lsn, prev, payload)
						}
						acked[lsn] = payload
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if len(acked) != workers*per {
				t.Fatalf("acked %d LSNs, want %d", len(acked), workers*per)
			}
			for lsn := uint64(1); lsn <= workers*per; lsn++ {
				if _, ok := acked[lsn]; !ok {
					t.Fatalf("LSN space not dense: %d missing", lsn)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append([]byte("late")); !errors.Is(err, ErrFailed) {
				t.Fatalf("append after Close: got %v, want ErrFailed", err)
			}
			replayed := 0
			err = Replay(dir, 0, func(r Record) error {
				replayed++
				if want := acked[r.LSN]; string(r.Payload) != want {
					return fmt.Errorf("lsn %d replayed %q, acked %q", r.LSN, r.Payload, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if replayed != workers*per {
				t.Fatalf("replayed %d records, want %d", replayed, workers*per)
			}
		})
	}
}

// TestGroupCommitFaultedBatch: with a disk fault injected under the
// gang, every waiter of the failed commit must get the error, none may
// be falsely acked, no LSN may be consumed, and the journal must stay
// replayable — recoverable in place for rollback-able faults, after an
// Open for a torn write.
func TestGroupCommitFaultedBatch(t *testing.T) {
	cases := []struct {
		name  string
		plan  fault.Plan
		fatal bool // torn tail: journal fails, recovery happens at Open
	}{
		{"sync fail", fault.Plan{Seed: 7, SyncFail: 1}, false},
		{"short write", fault.Plan{Seed: 7, ShortWrite: 1}, false},
		{"enospc", fault.Plan{Seed: 7, ENOSPC: 1}, false},
		{"torn record", fault.Plan{Seed: 7, TornRecord: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// A generous linger so the concurrent appends below gang up
			// into few (ideally one) batches.
			j, err := Open(dir, Options{GroupCommit: true, MaxCommitDelay: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			// Rate 1 fires at every opportunity, so every gang fails no
			// matter how the appends happened to batch.
			j.opts.Injector = fault.NewInjector(tc.plan)
			const n = 16
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lsn, err := j.Append([]byte(fmt.Sprintf("doomed-%d", i)))
					if err == nil {
						t.Errorf("append %d falsely acked with lsn %d", i, lsn)
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil {
					t.Fatalf("waiter %d has no error", i)
				}
				if tc.fatal && !errors.Is(err, ErrFailed) {
					t.Fatalf("waiter %d: torn batch returned %v, want ErrFailed", i, err)
				}
				if !tc.fatal && errors.Is(err, ErrFailed) {
					t.Fatalf("waiter %d: recoverable fault escalated to ErrFailed: %v", i, err)
				}
			}
			if j.Failed() != tc.fatal {
				t.Fatalf("Failed() = %v, want %v", j.Failed(), tc.fatal)
			}

			if tc.fatal {
				// Torn: reopen recovers; nothing from the doomed gang may
				// survive, and the first post-recovery LSN is 1.
				j.Close()
				j2, err := Open(dir, Options{GroupCommit: true})
				if err != nil {
					t.Fatal(err)
				}
				j = j2
			} else {
				// Rollback-able: the journal keeps serving once the disk
				// heals. Clearing the injector is race-free — the last
				// append's done-channel receive happens-before this write,
				// which happens-before the next enqueue.
				j.opts.Injector = nil
			}
			lsn, err := j.Append([]byte("alive"))
			if err != nil {
				t.Fatalf("append after failed gang: %v", err)
			}
			if lsn != 1 {
				t.Fatalf("first successful LSN = %d, want 1 (a rolled-back gang must not consume LSNs)", lsn)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			var got []string
			if err := Replay(dir, 0, func(r Record) error {
				got = append(got, fmt.Sprintf("%d:%s", r.LSN, r.Payload))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != "1:alive" {
				t.Fatalf("replay = %v, want exactly [1:alive]", got)
			}
		})
	}
}

// TestGroupCommitRotation: gangs must respect segment rotation so GC and
// recovery see the same multi-segment layout the per-append path builds.
func TestGroupCommitRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{GroupCommit: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	payload := []byte("0123456789abcdef0123456789abcdef")
	// Sequential appends keep every gang at size 1, making the rotation
	// points deterministic (concurrent gangs are covered above — rotation
	// only ever happens between gangs, never inside one).
	for i := 0; i < n; i++ {
		if _, err := j.Append(payload); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Recovery(); got.LastLSN != n || got.TornTail {
		t.Fatalf("recovery after rotated group commits = %+v, want LastLSN=%d and no tear", got, n)
	}
	if j2.Recovery().Segments < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", j2.Recovery().Segments)
	}
}
