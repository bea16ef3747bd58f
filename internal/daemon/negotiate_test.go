package daemon

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/witch"
)

// TestBinaryPusherKeepsBinaryAfterRejection: a 400 is a verdict on one
// body, not on the wire format. The rejected profile is retired as a
// counted "rejected" drop — no retries, no breaker charge — and every
// later post still carries the binary Content-Type.
func TestBinaryPusherKeepsBinaryAfterRejection(t *testing.T) {
	srv, _ := newTestServer(t, store.Config{})
	var posts, jsonPosts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") != witch.BinaryContentType {
			jsonPosts.Add(1)
		}
		if posts.Add(1) == 1 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	prof := testProfile(t, 1)
	p, err := witch.NewPusher(witch.PusherOptions{
		URL: ts.URL, Queue: 8, Backoff: time.Millisecond, Encoding: "binary",
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if !p.Push(prof) {
			t.Fatalf("push %d rejected", i)
		}
	}
	p.Close()

	st := p.Stats()
	if st.Sent != n-1 || st.Dropped != 1 || st.DroppedByReason[witch.DropRejected] != 1 {
		t.Fatalf("want %d sent and 1 rejected: %+v", n-1, st)
	}
	if st.Retries != 0 || st.BreakerTrips != 0 {
		t.Fatalf("a rejection must not be retried or charge the breaker: %+v", st)
	}
	if got := posts.Load(); got != n {
		t.Fatalf("daemon saw %d posts, want %d", got, n)
	}
	if got := jsonPosts.Load(); got != 0 {
		t.Fatalf("%d posts fell back to JSON, want every post binary", got)
	}
	if got := srv.st.Stats().Ingested; got != n-1 {
		t.Fatalf("daemon ingested %d, want %d", got, n-1)
	}
}

// TestBinaryAndJSONIngestAgreeByteForByte: the same profiles pushed
// through the JSON encoding and through the negotiated binary encoding
// must produce byte-identical GET /v1/profile output — the wire format
// is an optimization, never a semantic fork.
func TestBinaryAndJSONIngestAgreeByteForByte(t *testing.T) {
	profs := []*witch.Profile{testProfile(t, 1), testProfile(t, 2), testProfile(t, 3)}
	tool := profs[0].Tool

	fetch := func(enc string) []byte {
		now := func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
		_, ts := newTestServer(t, store.Config{Now: now})
		p, err := witch.NewPusher(witch.PusherOptions{
			URL: ts.URL, Queue: 8, Backoff: time.Millisecond, Encoding: enc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range profs {
			if !p.Push(prof) {
				t.Fatalf("%s push rejected", enc)
			}
		}
		p.Close()
		if st := p.Stats(); st.Sent != uint64(len(profs)) {
			t.Fatalf("%s pusher stats: %+v", enc, st)
		}
		resp, err := http.Get(ts.URL + "/v1/profile?tool=" + tool)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s profile: HTTP %d", enc, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	jsonView := fetch("json")
	binView := fetch("binary")
	if !bytes.Equal(jsonView, binView) {
		t.Fatalf("merged views diverge by encoding:\njson:   %s\nbinary: %s", jsonView, binView)
	}
}
