package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/witch"
)

// memNet is an in-memory http.RoundTripper that routes each request by
// host to a handler in this process: no sockets, so the benchmark
// measures the program rather than the kernel's TCP stack. With a
// tracer it wraps every handler call in a span, parented on the span
// of whichever call the request came from.
type memNet struct {
	hosts map[string]http.Handler // fixed before the first request
	tr    *tracer
}

func (m *memNet) RoundTrip(req *http.Request) (*http.Response, error) {
	h := m.hosts[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("memnet: no host %q", req.URL.Host)
	}
	sreq := req
	if sreq.Body == nil {
		sreq = sreq.Clone(sreq.Context())
		sreq.Body = http.NoBody
	}
	id := m.tr.newID()
	if id != 0 {
		sreq = sreq.WithContext(withSpan(sreq.Context(), id))
	}
	rec := &recorder{hdr: make(http.Header), code: http.StatusOK}
	start := time.Now()
	h.ServeHTTP(rec, sreq)
	if id != 0 {
		m.tr.add(id, spanFrom(req.Context()), spanName(req), requestID(req), start, time.Now())
	}
	return &http.Response{
		StatusCode: rec.code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: rec.hdr, Body: io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()), Request: req,
	}, nil
}

// spanName names the layer a request enters.
func spanName(req *http.Request) string {
	switch p := req.URL.Path; {
	case p == "/v1/ingest" && req.Header.Get(cluster.ForwardedHeader) != "":
		return "cluster.forward"
	case p == "/v1/ingest":
		return "daemon.ingest"
	case p == "/v1/replicate":
		return "cluster.replicate"
	case strings.HasPrefix(p, "/v1/shard"):
		return "cluster.scatter"
	case p == "/v1/digest":
		return "cluster.repair"
	case p == "/v1/top" || p == "/v1/profile":
		return "daemon.query"
	}
	return "daemon.other"
}

func requestID(req *http.Request) string {
	if id := req.Header.Get(witch.PusherIDHeader); id != "" {
		return id + ":" + req.Header.Get(witch.PusherSeqHeader)
	}
	return req.URL.RequestURI()
}

// recorder is the response side of an in-memory request.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// get serves one GET in memory and returns status, body and the
// incompleteness marker.
func get(h http.Handler, path string) (int, []byte, string) {
	req, _ := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	req.Body = http.NoBody
	rec := &recorder{hdr: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(rec, req)
	return rec.code, rec.body.Bytes(), rec.hdr.Get("X-Witch-Incomplete")
}

// post serves one ingest POST in memory, keyed when id is set.
func post(h http.Handler, body []byte, ctype, id string, seq uint64) error {
	req, _ := http.NewRequest(http.MethodPost, "http://bench/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	if id != "" {
		req.Header.Set(witch.PusherIDHeader, id)
		req.Header.Set(witch.PusherSeqHeader, strconv.FormatUint(seq, 10))
	}
	rec := &recorder{hdr: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %s", rec.code, strings.TrimSpace(rec.body.String()))
	}
	return nil
}

// scrape reads the daemon's /metrics exposition into name → value for
// the unlabelled samples.
func scrape(h http.Handler) map[string]float64 {
	_, body, _ := get(h, "/metrics")
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// batchRec is one batch the open-loop generator offered.
type batchRec struct {
	due     time.Time
	sent    time.Time // first time the transport saw it
	acked   time.Time // first 200; zero if never acked
	dropped bool      // Push refused it (queue full)
	bytes   int64
	span    int64
	// What an oracle needs to replay the batch after the timed phase:
	// the profile, the pusher and sequence number it went out under,
	// the encoding of its first ack, and the daemons' clock then.
	prof  *witch.Profile
	p     int
	seq   uint64
	ctype string
	vt    time.Time
}

// fleet is a set of witch.Pushers whose transports report every send
// and ack back to the generator, matched to due times by the pusher
// sequence header: a pusher numbers the profiles it delivers 1, 2, 3…
// in the order Push accepted them.
type fleet struct {
	pushers []*witch.Pusher
	ids     []string
	tr      *tracer
	// guard, when set, is held shared across each send; vclock, when
	// set, is the daemons' clock, read under the guard at each ack.
	guard  *sync.RWMutex
	vclock func() time.Time

	mu    sync.Mutex
	recs  []batchRec
	bySeq [][]int
}

// newFleet builds n pushers; pusher i posts to urls[i%len(urls)] and
// encodes binary when i is odd, JSON when even.
func newFleet(n int, urls []string, next http.RoundTripper, tr *tracer, traced bool) (*fleet, error) {
	fl := &fleet{tr: tr, bySeq: make([][]int, n)}
	for i := 0; i < n; i++ {
		enc := "json"
		if i%2 == 1 {
			enc = "binary"
		}
		p, err := witch.NewPusher(witch.PusherOptions{
			URL: urls[i%len(urls)], Queue: 1 << 16, Encoding: enc,
			Backoff: 5 * time.Millisecond, Timeout: 10 * time.Second,
			Client:  &http.Client{Transport: &pushRT{next: next, fl: fl, p: i}},
			Logf:    func(string, ...any) {},
			NoTrace: !traced,
		})
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.pushers = append(fl.pushers, p)
		fl.ids = append(fl.ids, p.ID())
	}
	return fl, nil
}

// offer pushes prof on pusher p as a batch due at due. It never blocks.
func (fl *fleet) offer(p int, prof *witch.Profile, due time.Time) {
	fl.mu.Lock()
	idx := len(fl.recs)
	fl.recs = append(fl.recs, batchRec{due: due, span: fl.tr.newID(), prof: prof, p: p})
	fl.bySeq[p] = append(fl.bySeq[p], idx)
	fl.mu.Unlock()
	if !fl.pushers[p].Push(prof) {
		// Refused profiles get no sequence number; only this goroutine
		// offers on p, so the entry just added is still the last.
		fl.mu.Lock()
		fl.recs[idx].dropped = true
		fl.bySeq[p] = fl.bySeq[p][:len(fl.bySeq[p])-1]
		fl.mu.Unlock()
	}
}

func (fl *fleet) mark() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.recs)
}

// slice copies the records [lo, hi).
func (fl *fleet) slice(lo, hi int) []batchRec {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return append([]batchRec(nil), fl.recs[lo:hi]...)
}

// wait blocks until every offered batch in [lo, hi) is acked or
// dropped, or the deadline passes; it reports whether all settled.
func (fl *fleet) wait(lo, hi int, deadline time.Time) bool {
	for {
		fl.mu.Lock()
		done := true
		for i := lo; i < hi && done; i++ {
			done = fl.recs[i].dropped || !fl.recs[i].acked.IsZero()
		}
		fl.mu.Unlock()
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (fl *fleet) close() {
	for _, p := range fl.pushers {
		p.Close()
	}
}

func (fl *fleet) stats() (s witch.PusherStats) {
	for _, p := range fl.pushers {
		ps := p.Stats()
		s.Sent += ps.Sent
		s.Dropped += ps.Dropped
		s.Retries += ps.Retries
	}
	return s
}

// pushRT is one pusher's transport: it timestamps the first send and
// the first 200 of each sequence number, then hands the request on.
type pushRT struct {
	next http.RoundTripper
	fl   *fleet
	p    int
}

func (t *pushRT) RoundTrip(req *http.Request) (*http.Response, error) {
	fl := t.fl
	seq, err := strconv.ParseUint(req.Header.Get(witch.PusherSeqHeader), 10, 64)
	if err != nil || seq == 0 {
		return nil, fmt.Errorf("pusher %d: bad sequence header", t.p)
	}
	now := time.Now()
	fl.mu.Lock()
	if int(seq) > len(fl.bySeq[t.p]) {
		fl.mu.Unlock()
		return nil, fmt.Errorf("pusher %d: sequence %d was never offered", t.p, seq)
	}
	idx := fl.bySeq[t.p][seq-1]
	rec := &fl.recs[idx]
	if rec.sent.IsZero() {
		rec.sent = now
	}
	root := rec.span
	fl.mu.Unlock()

	if fl.guard != nil {
		fl.guard.RLock()
		defer fl.guard.RUnlock()
	}
	if root != 0 {
		req = req.WithContext(withSpan(req.Context(), root))
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	acked := time.Now()
	var vt time.Time
	if fl.vclock != nil {
		vt = fl.vclock()
	}
	fl.mu.Lock()
	rec = &fl.recs[idx]
	first := rec.acked.IsZero()
	if first {
		rec.acked, rec.bytes = acked, req.ContentLength
		rec.seq, rec.ctype, rec.vt = seq, req.Header.Get("Content-Type"), vt
	}
	due, sent := rec.due, rec.sent
	fl.mu.Unlock()
	if first && root != 0 {
		fl.tr.add(root, 0, "bench.batch", requestID(req), due, acked)
		fl.tr.add(0, root, "witch.client", requestID(req), due, sent)
	}
	return resp, nil
}

// latencies returns, for the offered batches among recs, ack latency
// from the due time in ms, the push wait (due → transport entry) in
// ms, and how many were offered and how many failed (dropped or never
// acked).
func latencies(recs []batchRec) (ack, wait []float64, offered, failed int) {
	for _, r := range recs {
		offered++
		if r.dropped || r.acked.IsZero() {
			failed++
			continue
		}
		ack = append(ack, ms(r.acked.Sub(r.due)))
		wait = append(wait, ms(r.sent.Sub(r.due)))
	}
	return ack, wait, offered, failed
}

// backlog counts batches due by t and not yet acked at t.
func backlog(recs []batchRec, t time.Time) int {
	n := 0
	for _, r := range recs {
		if r.due.After(t) {
			continue
		}
		if r.dropped || r.acked.IsZero() || r.acked.After(t) {
			n++
		}
	}
	return n
}

// replay posts every acked batch of the fleet to an oracle daemon, in
// the order the batches were first acked, under the pusher ID and
// sequence number each went out with and re-encoded the way the pusher
// encoded it (the codecs are deterministic). setClock, when set, moves
// the oracle's clock to the time the daemon under test ingested each
// batch.
func (fl *fleet) replay(h http.Handler, setClock func(time.Time)) error {
	recs := fl.slice(0, fl.mark())
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].acked.Before(recs[j].acked) })
	var jsonBuf bytes.Buffer
	var bin []byte
	for _, r := range recs {
		if r.acked.IsZero() {
			continue
		}
		if setClock != nil {
			setClock(r.vt)
		}
		var body []byte
		var err error
		if r.ctype == witch.BinaryContentType {
			bin, err = r.prof.AppendBinary(bin[:0])
			body = bin
		} else {
			jsonBuf.Reset()
			err = r.prof.WriteJSONCompact(&jsonBuf)
			body = jsonBuf.Bytes()
		}
		if err == nil {
			err = post(h, body, r.ctype, fl.ids[r.p], r.seq)
		}
		if err != nil {
			return fmt.Errorf("oracle replay of %s seq %d: %w", fl.ids[r.p], r.seq, err)
		}
	}
	return nil
}
