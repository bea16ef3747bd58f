package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/witch"
)

func testProfile(t *testing.T, seed int64) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("listing3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func newTestServer(t *testing.T, cfg store.Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(store.New(cfg), Config{MaxBody: 4 << 20, Now: cfg.Now})
	srv.SetState(StateServing)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func ingest(t *testing.T, ts *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestIngestProfileRoundTrip is the acceptance pipeline: WriteJSON →
// POST /v1/ingest → GET /v1/profile → DiffProfiles reports zero drift
// for a single-source window.
func TestIngestProfileRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)

	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	if resp := ingest(t, ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/profile?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: HTTP %d", resp.StatusCode)
	}
	merged, err := witch.ReadProfileJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	d, err := witch.DiffProfiles(prof, merged)
	if err != nil {
		t.Fatal(err)
	}
	if d.RedundancyDelta != 0 || len(d.New)+len(d.Gone)+len(d.Changed) != 0 {
		var out bytes.Buffer
		d.Write(&out)
		t.Fatalf("single-source round trip drifted:\n%s", out.String())
	}
	// Bit-level: the re-materialized pair list must match exactly.
	a, b := prof.TopPairs(0), merged.TopPairs(0)
	if len(a) != len(b) {
		t.Fatalf("pair count drifted: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d drifted:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	if merged.Program != prof.Program || merged.Waste != prof.Waste || merged.Stats != prof.Stats {
		t.Fatal("profile metadata drifted through the daemon")
	}
}

// TestIngestBatchAndRouting: one request may carry many profiles —
// concatenated or as a JSON array — and each routes to its own tool.
func TestIngestBatchAndRouting(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	dead, load := testProfile(t, 1), testLoadProfile(t)

	var stream bytes.Buffer
	dead.WriteJSON(&stream)
	load.WriteJSON(&stream) // concatenated WriteJSON documents
	resp := ingest(t, ts, stream.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream ingest: HTTP %d", resp.StatusCode)
	}
	var ack struct {
		Accepted int            `json:"accepted"`
		ByTool   map[string]int `json:"by_tool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 2 || ack.ByTool[dead.Tool] != 1 || ack.ByTool[load.Tool] != 1 {
		t.Fatalf("ack = %+v", ack)
	}

	// Array form.
	var d1, d2 bytes.Buffer
	dead.WriteJSON(&d1)
	load.WriteJSON(&d2)
	arr := "[" + d1.String() + "," + d2.String() + "]"
	if resp := ingest(t, ts, []byte(arr)); resp.StatusCode != http.StatusOK {
		t.Fatalf("array ingest: HTTP %d", resp.StatusCode)
	}

	// Tools stayed separate.
	for _, tool := range []string{dead.Tool, load.Tool} {
		resp, err := http.Get(ts.URL + "/v1/top?tool=" + tool)
		if err != nil {
			t.Fatal(err)
		}
		var top struct {
			Tool  string       `json:"tool"`
			Pairs []witch.Pair `json:"pairs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&top)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if top.Tool != tool || len(top.Pairs) == 0 {
			t.Fatalf("top for %s = %+v", tool, top)
		}
	}
}

func testLoadProfile(t *testing.T) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.RedundantLoads, Period: 197, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.TopPairs(0)) == 0 {
		t.Fatal("load profile has no pairs")
	}
	return prof
}

// TestIngestRejections: hostile bodies — malformed JSON, schema
// violations, wrong method, oversized payloads — are rejected atomically
// with descriptive errors, and nothing half-lands.
func TestIngestRejections(t *testing.T) {
	srv, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)
	var good bytes.Buffer
	prof.WriteJSON(&good)

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"garbage", "not json", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"empty array", "[]", http.StatusBadRequest},
		{"bad version", strings.Replace(good.String(), `"format_version": 1`, `"format_version": 9`, 1), http.StatusBadRequest},
		{"good then bad", good.String() + "{\"format_version\": 9}", http.StatusBadRequest},
		{"binary magic only", "WITCHB1\n", http.StatusBadRequest},
		{"binary truncated", "WITCHB1\n\x05{\"a\"", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := ingest(t, ts, []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
	// Atomicity: the "good then bad" batch must not have landed its
	// good half.
	if got := srv.st.Stats().Ingested; got != 0 {
		t.Fatalf("%d profiles landed from rejected batches", got)
	}
	if resp, _ := http.Get(ts.URL + "/v1/ingest"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: HTTP %d", resp.StatusCode)
	}

	// Size limit: a tiny cap rejects the same valid body outright.
	small := NewServer(store.New(store.Config{}), Config{MaxBody: 16})
	small.SetState(StateServing)
	tss := httptest.NewServer(small.Handler())
	defer tss.Close()
	resp, err := http.Post(tss.URL+"/v1/ingest", "application/json", bytes.NewReader(good.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestQueryValidation covers the query endpoints' error paths.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	for path, want := range map[string]int{
		"/v1/top":                          http.StatusBadRequest, // missing tool
		"/v1/top?tool=DeadCraft&window=x":  http.StatusBadRequest,
		"/v1/top?tool=DeadCraft&n=-1":      http.StatusBadRequest,
		"/v1/top?tool=DeadCraft":           http.StatusNotFound, // nothing ingested
		"/v1/profile?tool=DeadCraft":       http.StatusNotFound,
		"/v1/profile":                      http.StatusBadRequest,
		"/v1/profile?tool=X&program=nope":  http.StatusNotFound,
		"/v1/top?tool=DeadCraft&window=1h": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestHealthz aggregates fleet health and retention stats.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)
	var body bytes.Buffer
	prof.WriteJSON(&body)
	ingest(t, ts, body.Bytes())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var hz struct {
		Status   string       `json:"status"`
		Profiles uint64       `json:"profiles"`
		Tools    []string     `json:"tools"`
		Health   witch.Health `json:"health"`
		Store    store.Stats  `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Profiles != 1 || len(hz.Tools) != 1 || hz.Tools[0] != prof.Tool {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Store.Ingested != 1 {
		t.Fatalf("store stats = %+v", hz.Store)
	}

	// A degraded profile flips fleet status.
	bad := witch.NewProfile(witch.Profile{
		Program: "p", Tool: "DeadCraft", Waste: 1, Use: 1, Redundancy: 0.5,
		Health: witch.Health{SignalsLost: 3, SampleLoss: true, Degraded: true},
	}, []witch.Pair{{Src: "a:f:1", Dst: "a:g:2", Chain: "main", Waste: 1, Use: 1}})
	var bb bytes.Buffer
	bad.WriteJSON(&bb)
	ingest(t, ts, bb.Bytes())
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Health.SignalsLost != 3 || !hz.Health.Degraded {
		t.Fatalf("degraded healthz = %+v", hz)
	}
}

// TestConcurrentPushersWithEviction is the acceptance scenario: ≥8
// parallel pushers (real witch.Pusher clients) sustain ingest against a
// live daemon under -race while a moving clock forces retention
// eviction; memory stays bounded (live pairs capped by the ring) and no
// profile is lost from the all-time view.
func TestConcurrentPushersWithEviction(t *testing.T) {
	// The clock advances one step per observation: deliveries are async
	// (the pushers' queues drain in the background), so driving time
	// from the ingest side — not the push loops — guarantees the
	// profiles actually spread across retention windows.
	var calls atomic.Int64
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	srv, ts := newTestServer(t, store.Config{
		Window:  time.Minute,
		Buckets: 3,
		Now: func() time.Time {
			n := calls.Add(1)
			return t0.Add(time.Duration(n/8) * 30 * time.Second)
		},
	})

	const (
		pushers = 8
		perP    = 20
	)
	// Distinct programs per pusher: distinct pair streams, so the
	// live-pair bound is meaningful.
	profs := make([]*witch.Profile, pushers)
	base := testProfile(t, 1)
	for i := range profs {
		meta := witch.Profile{
			Program: fmt.Sprintf("svc-%d", i), Tool: base.Tool,
			Redundancy: base.Redundancy, Waste: base.Waste, Use: base.Use,
			Stats: base.Stats, Health: base.Health,
		}
		pairs := make([]witch.Pair, len(base.TopPairs(0)))
		copy(pairs, base.TopPairs(0))
		profs[i] = witch.NewProfile(meta, pairs)
	}

	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Odd pushers negotiate the binary encoding, even ones stay
			// JSON — the merged view must not care.
			enc := "json"
			if i%2 == 1 {
				enc = "binary"
			}
			p, err := witch.NewPusher(witch.PusherOptions{
				URL: ts.URL, Queue: perP, Backoff: time.Millisecond, Encoding: enc,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < perP; j++ {
				if !p.Push(profs[i]) {
					t.Errorf("pusher %d: push %d rejected", i, j)
				}
			}
			p.Close()
			if st := p.Stats(); st.Sent != perP {
				t.Errorf("pusher %d delivered %d/%d: %+v", i, st.Sent, perP, st)
			}
		}(i)
	}
	wg.Wait()

	st := srv.st.Stats()
	if st.Ingested != pushers*perP {
		t.Fatalf("daemon ingested %d, want %d", st.Ingested, pushers*perP)
	}
	if st.EvictedBuckets == 0 {
		t.Fatal("no eviction observed under sustained ingest")
	}
	if st.LiveBuckets > 3 {
		t.Fatalf("live buckets %d exceed ring size", st.LiveBuckets)
	}
	// Bounded memory: live pairs are capped by ring size × distinct
	// streams per window, regardless of how long ingest ran.
	maxLive := 3 * pushers * len(base.TopPairs(0))
	if st.LivePairs > maxLive {
		t.Fatalf("live pairs %d exceed retention bound %d", st.LivePairs, maxLive)
	}
	// Nothing lost: the all-time view accounts for every push.
	all := srv.st.Query(0)
	if got := all.Profiles(); got != pushers*perP {
		t.Fatalf("all-time view has %d profiles, want %d", got, pushers*perP)
	}
}

// TestCrossProgramTieRanking: two programs may hold the same pair
// signature with equal waste; a tool-wide view must still rank them in
// one order — use descending, then source line, then destination line
// ascending — on the full-sort path (/v1/profile) and the top-n heap
// (/v1/top) alike. The winner of each tie alternates between the
// programs, so no ingest or map order can pass by accident.
func TestCrossProgramTieRanking(t *testing.T) {
	pair := func(sig int, waste, use float64, srcLine, dstLine int) witch.Pair {
		return witch.Pair{
			Src: fmt.Sprintf("a.c:f:%d", sig), Dst: fmt.Sprintf("a.c:g:%d", sig), Chain: fmt.Sprintf("main->f%d->g%d", sig, sig),
			Waste: waste, Use: use, SrcLine: srcLine, DstLine: dstLine,
		}
	}
	alpha := []witch.Pair{pair(1, 10, 3, 1, 1), pair(2, 5, 2, 4, 1), pair(3, 1, 2, 3, 8)}
	beta := []witch.Pair{pair(1, 10, 7, 1, 1), pair(2, 5, 2, 9, 1), pair(3, 1, 2, 3, 1)}
	want := []witch.Pair{beta[0], alpha[0], alpha[1], beta[1], beta[2], alpha[2]}

	_, ts := newTestServer(t, store.Config{})
	for _, p := range []struct {
		program string
		pairs   []witch.Pair
	}{{"alpha", alpha}, {"beta", beta}} {
		var body bytes.Buffer
		prof := witch.NewProfile(witch.Profile{Program: p.program, Tool: "dead", Waste: 16, Use: 7}, p.pairs)
		if err := prof.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		if resp := ingest(t, ts, body.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: HTTP %d", p.program, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/profile?tool=dead")
	if err != nil {
		t.Fatal(err)
	}
	merged, err := witch.ReadProfileJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.TopPairs(0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("/v1/profile ranking:\n got %v\nwant %v", got, want)
	}
	for _, n := range []int{2, 3, 6} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/top?tool=dead&n=%d", ts.URL, n))
		if err != nil {
			t.Fatal(err)
		}
		var top struct{ Pairs []witch.Pair }
		err = json.NewDecoder(resp.Body).Decode(&top)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(top.Pairs) != fmt.Sprint(want[:n]) {
			t.Fatalf("/v1/top n=%d ranking:\n got %v\nwant %v", n, top.Pairs, want[:n])
		}
	}
}
