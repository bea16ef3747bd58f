package witch

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Drop reasons, the keys of PusherStats.DroppedByReason.
const (
	// DropQueueFull: Push found the bounded queue full (daemon slower
	// than the workload produces profiles, or breaker open). With a
	// spool configured this means the spill channel was full too.
	DropQueueFull = "queue_full"
	// DropClosed: Push after Close, or — without a spool — a profile
	// Close found undelivered (mid-backoff, or queued behind a failed
	// final delivery).
	DropClosed = "closed"
	// DropRetries: every delivery attempt failed (memory-only pushers;
	// a spooled pusher parks the profile on disk instead).
	DropRetries = "retries_exhausted"
	// DropRejected: the daemon answered a permanent verdict — any 4xx
	// except 408, 409 and 429 — that resending the same bytes cannot
	// change. The profile or spool entry is retired at once, with no
	// retries and no breaker charge, spooled or not.
	DropRejected = "rejected"
	// DropEncode: the profile failed to serialize.
	DropEncode = "encode_error"
	// DropBreakerOpen: the pusher was closing while the circuit breaker
	// held deliveries back, so the queued profile was abandoned without
	// hammering a daemon that just said stop.
	DropBreakerOpen = "breaker_open"
	// DropSpoolEvict: the bounded spool shed its oldest entries to make
	// room — the only drop path a healthy spooled pusher has, and the
	// exactly-counted one the delivery chaos experiment audits.
	DropSpoolEvict = "spool_evicted"
	// DropSpoolError: the spool itself failed (disk error) while a
	// profile was being parked.
	DropSpoolError = "spool_error"
)

// PusherOptions configures a Pusher. The zero value of every field is a
// usable default except URL, which is required.
type PusherOptions struct {
	// URL is the witchd daemon's base URL (e.g. "http://host:9147");
	// profiles are POSTed to URL + "/v1/ingest".
	URL string
	// URLs optionally lists more witchd base URLs — the rest of a
	// cluster's peers. Delivery targets one URL at a time, starting
	// with URL; every failed attempt rotates to the next, so a dead
	// entry node costs one attempt instead of an outage. Any node
	// accepts any batch (non-owners forward), which is what makes
	// blind rotation safe: the idempotency key, not the entry node,
	// decides where a batch lands. A daemon-advertised Retry-After
	// still opens the breaker globally — in a cluster it means this
	// pusher's owner is shedding, and every entry node would relay the
	// same answer.
	URLs []string
	// Queue bounds the number of profiles waiting to be sent
	// (default 16). When the queue is full, Push drops and counts —
	// or spills to the durable spool when SpoolDir is set.
	Queue int
	// Retries is how many extra delivery attempts a profile gets after
	// its first failure before being dropped (default 3).
	Retries int
	// Backoff is the delay before the first retry, doubling each
	// attempt — the same bounded-retry idiom the profiler uses for
	// failed watchpoint arms (default 50ms). The actual sleep is
	// full-jittered: uniform in (0, backoff], so a daemon restart does
	// not see every pusher's retry land in the same instant.
	Backoff time.Duration
	// Timeout bounds each HTTP request (default 2s). Ignored when
	// Client is set.
	Timeout time.Duration
	// Client overrides the HTTP client, e.g. for tests or fault
	// injection (see internal/fault.Transport).
	Client *http.Client
	// BreakerThreshold is how many consecutive delivery failures open
	// the circuit breaker (default 3). While open, the sender stops
	// attempting deliveries entirely; after the cooldown one half-open
	// trial decides whether to close it again. A daemon answering 429
	// or 503 with Retry-After opens the breaker immediately for the
	// advertised duration — shedding means "go away", not "try harder".
	BreakerThreshold int
	// BreakerCooldown is the initial open duration (default 500ms),
	// doubling on each failed half-open trial up to 30s. The applied
	// interval is equal-jittered — uniform in [cooldown/2, cooldown] —
	// so a fleet of pushers tripped by one outage re-probes spread out,
	// not in lockstep.
	BreakerCooldown time.Duration
	// Logf receives the pusher's (rare) log lines: the first drop of an
	// outage and the recovery summary — repeats in between are
	// suppressed so a dead daemon costs one line, not one per profile.
	// Defaults to log.Printf; use a no-op func to silence.
	Logf func(format string, args ...any)
	// Encoding selects the wire format: "json" (the default) or
	// "binary", the compact encoding witchd recognizes by Content-Type.
	Encoding string
	// SpoolDir enables the durable spool: a disk-backed overflow queue
	// (internal/wal segments) that catches profiles the daemon cannot
	// take right now — breaker open, queue full, retries exhausted —
	// and replays them oldest-first on reconnect and across process
	// restarts. The directory also persists the pusher's identity and
	// sequence floor, making the (pusher ID, sequence) idempotency key
	// stable across restarts. Empty disables spooling (memory-only, the
	// pre-spool behavior).
	SpoolDir string
	// SpoolMaxBytes bounds the spool's disk footprint (default 64 MiB).
	// When exceeded, the oldest entries are shed first and counted in
	// DroppedByReason[DropSpoolEvict].
	SpoolMaxBytes int64
	// SpoolSegmentBytes is the spool's segment file size (default
	// 1 MiB) — the GC and eviction granule.
	SpoolSegmentBytes int64
	// SpoolInjector threads a disk-fault injector into the spool's
	// journal writes — the chaos seam for delivery experiments. Nil in
	// production.
	SpoolInjector *fault.Injector
	// NoTrace disables delivery observability: no X-Witch-Trace header
	// is minted per attempt and no attempt-latency histogram is kept.
	// The header is a pure witness (a daemon's verdict never depends on
	// it), so this exists for byte-level A/B oracles and overhead
	// measurements, not correctness.
	NoTrace bool
}

// LatencySummary condenses the pusher's attempt-latency histogram for
// Stats: quantiles are conservative (bucket upper bounds).
type LatencySummary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
}

// PusherStats counts a pusher's lifetime outcomes.
type PusherStats struct {
	// Enqueued profiles were accepted by Push; Sent were delivered.
	Enqueued, Sent uint64
	// Dropped counts profiles lost to a full queue, a closed pusher,
	// exhausted retries, or spool eviction — the backpressure escape
	// valve: the profiled workload sheds profiles rather than ever
	// blocking on the daemon.
	Dropped uint64
	// DroppedByReason splits Dropped by cause (see the Drop* constants).
	DroppedByReason map[string]uint64
	// Retries counts extra delivery attempts; Errors counts failed
	// attempts (each drop after retries contributes Retries+1 errors).
	Retries, Errors uint64
	// BreakerTrips counts transitions of the circuit breaker to open.
	BreakerTrips uint64
	// Failovers counts delivery-target rotations (only with
	// PusherOptions.URLs): each failed attempt moves to the next peer.
	Failovers uint64
	// Spooled counts profiles parked in the durable spool; Replayed
	// counts spool entries later delivered. SpoolPending is the durable
	// backlog right now — at quiescence, Enqueued = Sent + Dropped +
	// SpoolPending. SpoolEvicted is the spool's lifetime eviction count
	// (across process restarts; also included in Dropped for evictions
	// this incarnation performed).
	Spooled, Replayed, SpoolPending, SpoolEvicted uint64
	// AttemptLatency summarizes per-POST delivery latency over every
	// attempt, successful or not (zero with PusherOptions.NoTrace).
	AttemptLatency LatencySummary
	// LastTrace is the trace ID the most recent delivery attempt carried
	// in its X-Witch-Trace header — paste it into GET /v1/trace/{id} on
	// any node for the cross-node span tree ("" with NoTrace or before
	// the first attempt).
	LastTrace string
}

// Pusher streams profiles to a witchd daemon from the profiled process.
// It is the continuous-deployment half of the paper's collect/inspect
// split: Run keeps producing profiles, the pusher ships them, and the
// daemon merges them fleet-wide.
//
// Delivery must never hurt the workload being profiled, so Push is
// non-blocking: a bounded queue feeds one background sender, and when
// the daemon is slow, unreachable, or dead, profiles are dropped and
// counted (see PusherStats.Dropped) — the same degrade-don't-die policy
// the profiler applies to its own substrate failures. When the daemon
// sheds load (429/503 + Retry-After) or fails repeatedly, a circuit
// breaker stops delivery attempts for the advertised cooldown instead
// of retrying blind, re-probing with a single half-open trial.
//
// With PusherOptions.SpoolDir set the escape valve becomes durable:
// instead of dropping, undeliverable profiles are parked in a bounded
// on-disk spool and replayed — oldest first — when the daemon returns,
// including after a pusher process restart. Every request carries a
// (pusher ID, sequence) idempotency key, so a retry whose original ack
// was lost in the network is re-acked by the daemon without being
// merged twice: together spool and key give exactly-once delivery up
// to spool eviction, which is itself exactly counted.
type Pusher struct {
	opts PusherOptions
	// urls are the resolved ingest endpoints (URL first, then URLs,
	// deduplicated); url is the current target, rotated by the sender
	// on failed attempts. urlIdx is sender-owned; url is set at
	// rotation and read by sender-side logging and post.
	urls      []string
	urlIdx    int
	url       string
	failovers atomic.Uint64
	queue     chan *Profile
	// spill catches profiles that found queue full (spool mode only);
	// the sender moves them to disk.
	spill chan *Profile
	quit  chan struct{}
	wg    sync.WaitGroup

	closed   atomic.Bool
	aborted  atomic.Bool
	enqueued atomic.Uint64
	sent     atomic.Uint64
	dropped  atomic.Uint64
	retries  atomic.Uint64
	errors   atomic.Uint64
	trips    atomic.Uint64

	reasonMu sync.Mutex
	byReason map[string]uint64

	// inOutage marks that at least one drop has been logged since the
	// last successful delivery; further drop logs are suppressed until
	// delivery recovers.
	inOutage atomic.Bool

	// Identity and sequence: the idempotency key. id is durable with a
	// spool, per-process without; nextSeq is touched only by the sender.
	id      string
	nextSeq uint64

	// sp is the durable spool (nil without SpoolDir). All spool I/O
	// happens on the sender goroutine (plus Close, after the sender has
	// exited); the atomics below mirror its state for Stats.
	sp           *spool
	spooled      atomic.Uint64
	replayed     atomic.Uint64
	spoolPending atomic.Uint64
	spoolEvicted atomic.Uint64

	// Breaker state, touched only by the sender goroutine.
	brFails    int
	brOpenTill time.Time
	brCooldown time.Duration

	// rng drives backoff and cooldown jitter; sender-owned.
	rng *rand.Rand

	// hist is the attempt-latency histogram (nil with NoTrace);
	// lastTrace holds the most recent attempt's trace ID, written by the
	// sender per POST and read by Stats.
	hist      *obs.Histogram
	lastTrace atomic.Pointer[string]

	// Encoder state, touched only by the sender goroutine: the buffers
	// are reused across deliveries so a long-lived pusher encodes with
	// zero steady-state allocations.
	binary  bool
	encBuf  []byte
	jsonBuf bytes.Buffer
}

// NewPusher starts a pusher's background sender. With SpoolDir set it
// first opens (or creates) the spool, restoring the durable pusher
// identity, sequence floor, and any backlog a previous process left.
func NewPusher(opts PusherOptions) (*Pusher, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("witch: PusherOptions.URL is required")
	}
	if !strings.HasPrefix(opts.URL, "http://") && !strings.HasPrefix(opts.URL, "https://") {
		return nil, fmt.Errorf("witch: PusherOptions.URL must be http(s), got %q", opts.URL)
	}
	urls := []string{strings.TrimRight(opts.URL, "/") + "/v1/ingest"}
	for _, u := range opts.URLs {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("witch: PusherOptions.URLs entries must be http(s), got %q", u)
		}
		ingest := strings.TrimRight(u, "/") + "/v1/ingest"
		dup := false
		for _, have := range urls {
			if have == ingest {
				dup = true
				break
			}
		}
		if !dup {
			urls = append(urls, ingest)
		}
	}
	if opts.Queue <= 0 {
		opts.Queue = 16
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("witch: PusherOptions.Retries must be >= 0, got %d", opts.Retries)
	}
	if opts.Retries == 0 {
		opts.Retries = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: opts.Timeout}
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 500 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	switch opts.Encoding {
	case "":
		opts.Encoding = "json"
	case "json", "binary":
	default:
		return nil, fmt.Errorf("witch: PusherOptions.Encoding must be \"json\" or \"binary\", got %q", opts.Encoding)
	}
	if opts.SpoolMaxBytes <= 0 {
		opts.SpoolMaxBytes = 64 << 20
	}
	if opts.SpoolSegmentBytes <= 0 {
		opts.SpoolSegmentBytes = 1 << 20
	}
	p := &Pusher{
		opts:       opts,
		urls:       urls,
		url:        urls[0],
		queue:      make(chan *Profile, opts.Queue),
		quit:       make(chan struct{}),
		byReason:   make(map[string]uint64),
		brCooldown: opts.BreakerCooldown,
		binary:     opts.Encoding == "binary",
		rng:        rand.New(rand.NewSource(randSeed())),
	}
	if !opts.NoTrace {
		p.hist = &obs.Histogram{}
	}
	if opts.SpoolDir != "" {
		sp, err := openSpool(opts.SpoolDir, opts.SpoolSegmentBytes, opts.SpoolMaxBytes, opts.SpoolInjector)
		if err != nil {
			return nil, err
		}
		p.sp = sp
		p.id = sp.meta.PusherID
		p.nextSeq = sp.meta.SeqFloor
		p.spill = make(chan *Profile, opts.Queue)
		p.spoolEvicted.Store(sp.meta.Evicted)
		p.spoolPending.Store(sp.pending())
	} else {
		p.id = newPusherID()
	}
	p.wg.Add(1)
	go p.sender()
	return p, nil
}

// ID returns the pusher's identity — the stable half of the
// (pusher ID, sequence) idempotency key. Durable across restarts with
// a spool, per-process without.
func (p *Pusher) ID() string { return p.id }

// Push enqueues a profile for delivery and returns immediately. It
// reports false — and counts a drop — when the queue (and, with a
// spool, the spill channel) is full or the pusher is closed; it never
// blocks and never fails the caller.
func (p *Pusher) Push(prof *Profile) bool {
	if p.closed.Load() {
		p.drop(DropClosed)
		return false
	}
	select {
	case p.queue <- prof:
		p.enqueued.Add(1)
		return true
	default:
	}
	if p.spill != nil {
		select {
		case p.spill <- prof:
			p.enqueued.Add(1)
			return true
		default:
		}
	}
	p.drop(DropQueueFull)
	return false
}

// drop counts one lost profile and logs the first drop of an outage
// (suppressing repeats until delivery recovers).
func (p *Pusher) drop(reason string) {
	p.dropped.Add(1)
	p.reasonMu.Lock()
	p.byReason[reason]++
	p.reasonMu.Unlock()
	if !p.inOutage.Swap(true) {
		// urls[0], not the rotating p.url: drop can run on the Push
		// caller's goroutine while the sender rotates targets, and the
		// line identifies the pusher, not the attempt.
		p.opts.Logf("witch: pusher to %s dropping profiles (%s); further drops suppressed until delivery recovers", p.urls[0], reason)
	}
}

// recovered notes a successful delivery, closing any outage episode
// with a summary line.
func (p *Pusher) recovered() {
	p.sent.Add(1)
	if p.inOutage.Swap(false) {
		p.opts.Logf("witch: pusher to %s recovered (%d profiles dropped so far)", p.urls[0], p.dropped.Load())
	}
}

// Close stops accepting profiles, attempts delivery of everything
// queued (spooling what the daemon will not take, when a spool is
// configured), and waits for the sender to exit. A spooled pusher's
// undelivered backlog stays on disk for the next incarnation.
func (p *Pusher) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.quit)
	p.wg.Wait()
	// Park what the sender's final drain left behind, including
	// stragglers from a Push racing Close past the closed check, so
	// every profile Push accepted is sent, spooled, or counted dropped.
	p.parkAll()
	if p.sp == nil {
		return nil
	}
	err := p.sp.close()
	p.syncSpoolStats()
	return err
}

// Abort is Close's kill -9 twin, for crash tests and the chaos
// harness: it stops the pusher immediately — no drain, no final
// deliveries, no spool sync — losing exactly what a process crash
// would lose. Durable spool state (entries, ack cursor, sequence
// floor) survives for the next incarnation to replay.
func (p *Pusher) Abort() {
	if p.closed.Swap(true) {
		return
	}
	p.aborted.Store(true)
	close(p.quit)
	p.wg.Wait()
	if p.sp != nil {
		p.sp.abandon()
	}
}

// Stats snapshots the lifetime counters.
func (p *Pusher) Stats() PusherStats {
	p.reasonMu.Lock()
	byReason := make(map[string]uint64, len(p.byReason))
	for k, v := range p.byReason {
		byReason[k] = v
	}
	p.reasonMu.Unlock()
	st := PusherStats{
		Enqueued:        p.enqueued.Load(),
		Sent:            p.sent.Load(),
		Dropped:         p.dropped.Load(),
		DroppedByReason: byReason,
		Retries:         p.retries.Load(),
		Errors:          p.errors.Load(),
		BreakerTrips:    p.trips.Load(),
		Failovers:       p.failovers.Load(),
		Spooled:         p.spooled.Load(),
		Replayed:        p.replayed.Load(),
		SpoolPending:    p.spoolPending.Load(),
		SpoolEvicted:    p.spoolEvicted.Load(),
	}
	if p.hist != nil {
		snap := p.hist.Snapshot()
		st.AttemptLatency = LatencySummary{
			Count: snap.Count,
			Mean:  snap.Mean(),
			P50:   snap.Quantile(0.5),
			P99:   snap.Quantile(0.99),
		}
	}
	if tp := p.lastTrace.Load(); tp != nil {
		st.LastTrace = *tp
	}
	return st
}

// syncSpoolStats mirrors spool state into the atomics Stats reads.
// Sender goroutine only (or Close, after the sender exited).
func (p *Pusher) syncSpoolStats() {
	p.spoolPending.Store(p.sp.pending())
	p.spoolEvicted.Store(p.sp.meta.Evicted)
}

// allocSeq issues the next sequence number, reserving the durable
// floor ahead in blocks so a restart can never reuse a sequence (reuse
// would make the daemon discard the new batch as a duplicate).
func (p *Pusher) allocSeq() uint64 {
	p.nextSeq++
	if p.sp != nil && p.nextSeq > p.sp.meta.SeqFloor {
		if err := p.sp.reserveSeq(p.nextSeq + seqReserveBlock); err != nil {
			p.opts.Logf("witch: pusher to %s: sequence reservation failed: %v (dedup may weaken after a crash)", p.url, err)
		}
	}
	return p.nextSeq
}

// sender is the pusher's one delivery loop. Priorities per iteration:
// (1) get spilled profiles onto disk — the spill channel is small and
// Push drops when it is full; (2) drain the spool backlog oldest-first
// so delivery order tracks sequence order; (3) only with an empty
// spool, deliver fresh profiles directly. While the breaker is open
// the spool is the wait room: arrivals go to disk and the loop parks
// until the cooldown elapses. Without a spool, (1) and (2) never fire
// (the spill channel is nil and nothing is pending), so every profile
// takes path (3).
func (p *Pusher) sender() {
	defer p.wg.Done()
	for {
		p.sweepSpill()
		if p.sp.pending() > 0 {
			if time.Until(p.brOpenTill) > 0 {
				if !p.parkOpenBreaker() {
					p.final()
					return
				}
				continue
			}
			if !p.drainChunk() {
				quit := false
				select {
				case <-p.quit:
					quit = true
				default:
				}
				if !quit && time.Until(p.brOpenTill) <= 0 {
					// Terminal failure without a breaker trip: pace the
					// next drain attempt instead of spinning.
					quit = !p.pause(p.jitterFull(p.opts.Backoff))
				}
				if quit {
					p.final()
					return
				}
			}
			continue
		}
		select {
		case prof := <-p.spill:
			p.spoolProfile(prof)
		case prof := <-p.queue:
			p.deliverOrPark(prof)
		case <-p.quit:
			p.final()
			return
		}
	}
}

// pause sleeps d, returning false if the pusher began closing.
func (p *Pusher) pause(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-p.quit:
		return false
	}
}

// parkOpenBreaker waits out the breaker's open interval, spooling any
// arrivals meanwhile so the workload never blocks on the outage. It
// returns false when the pusher began closing.
func (p *Pusher) parkOpenBreaker() bool {
	for {
		wait := time.Until(p.brOpenTill)
		if wait <= 0 {
			return true
		}
		t := time.NewTimer(wait)
		select {
		case prof := <-p.spill:
			t.Stop()
			p.spoolProfile(prof)
		case prof := <-p.queue:
			t.Stop()
			p.spoolProfile(prof)
		case <-t.C:
			return true
		case <-p.quit:
			t.Stop()
			return false
		}
	}
}

// sweepSpill moves everything in the spill channel to disk.
func (p *Pusher) sweepSpill() {
	for {
		select {
		case prof := <-p.spill:
			p.spoolProfile(prof)
		default:
			return
		}
	}
}

// parkAll parks everything still in memory (see park).
func (p *Pusher) parkAll() {
	for {
		select {
		case prof := <-p.spill:
			p.park(0, prof, DropClosed)
		case prof := <-p.queue:
			p.park(0, prof, DropClosed)
		default:
			return
		}
	}
}

// final is the shutdown path: drain the spool backlog and then the
// queue while the daemon takes them, stopping at the first delivery
// that fails, the daemon shedding, or a spool error. Close parks
// whatever remains — pending on disk for the next incarnation, or
// counted dropped without a spool. After Abort, nothing runs — that is
// the point.
func (p *Pusher) final() {
	if p.aborted.Load() {
		return
	}
	for {
		p.sweepSpill()
		if p.sp.pending() > 0 {
			if time.Until(p.brOpenTill) > 0 || !p.drainChunk() {
				return
			}
			continue
		}
		select {
		case prof := <-p.queue:
			if !p.deliverOrPark(prof) {
				return
			}
		default:
			return
		}
	}
}

// spoolProfile encodes a profile and parks it with a fresh sequence.
func (p *Pusher) spoolProfile(prof *Profile) {
	p.spoolEncoded(p.allocSeq(), prof)
}

// spoolEncoded encodes and parks a profile under an already-issued
// sequence (the direct path spools retries under their original
// sequence, so a daemon that did receive an earlier attempt dedups it).
func (p *Pusher) spoolEncoded(seq uint64, prof *Profile) {
	body, _, err := p.encode(prof)
	if err != nil {
		p.errors.Add(1)
		p.drop(DropEncode)
		return
	}
	p.spoolBody(seq, body)
}

// park sets aside a profile the daemon cannot take right now. With a
// spool it goes to disk under seq (0 issues a fresh one) for replay;
// without one it is a drop counted under reason.
func (p *Pusher) park(seq uint64, prof *Profile, reason string) {
	if p.sp == nil {
		p.drop(reason)
		return
	}
	if seq == 0 {
		seq = p.allocSeq()
	}
	p.spoolEncoded(seq, prof)
}

// spoolBody parks encoded bytes, counting any eviction the disk bound
// forced.
func (p *Pusher) spoolBody(seq uint64, body []byte) {
	evicted, err := p.sp.append(seq, body)
	if evicted > 0 {
		p.dropped.Add(evicted)
		p.reasonMu.Lock()
		p.byReason[DropSpoolEvict] += evicted
		p.reasonMu.Unlock()
		if !p.inOutage.Swap(true) {
			p.opts.Logf("witch: pusher to %s: spool over budget, evicted %d oldest entries; further drops suppressed until delivery recovers", p.url, evicted)
		}
	}
	if err != nil {
		p.errors.Add(1)
		p.drop(DropSpoolError)
		p.syncSpoolStats()
		return
	}
	p.spooled.Add(1)
	p.syncSpoolStats()
}

// spoolReplayChunk bounds how many backlog entries one drain pass
// reads before re-checking the channels and the breaker.
const spoolReplayChunk = 32

// drainChunk replays up to one chunk of the spool backlog, acking each
// delivered entry before touching the next. It reports false when
// drain cannot continue right now (breaker opened, terminal failure,
// closing, or a spool error).
func (p *Pusher) drainChunk() bool {
	entries, err := p.sp.readChunk(spoolReplayChunk)
	if err != nil {
		p.errors.Add(1)
		p.opts.Logf("witch: pusher to %s: spool read failed: %v", p.url, err)
		return false
	}
	if len(entries) == 0 {
		// The cursors promise pending entries the segments no longer
		// hold (e.g. a machine crash ate unsynced appends). Reconcile so
		// the loop does not spin on a phantom backlog.
		p.sp.reconcileEmpty()
		p.syncSpoolStats()
		return true
	}
	for _, e := range entries {
		ctype := "application/json"
		if IsBinaryProfile(e.body) {
			ctype = BinaryContentType
		}
		switch p.trySend(e.body, ctype, e.seq) {
		case sendOK:
			p.replayed.Add(1)
		case sendRejected:
			// Retire the entry so it cannot wedge the backlog.
			p.drop(DropRejected)
		default:
			return false
		}
		if err := p.sp.ack(e.lsn); err != nil {
			p.errors.Add(1)
			p.opts.Logf("witch: pusher to %s: spool ack failed: %v", p.url, err)
			p.syncSpoolStats()
			return false
		}
		p.syncSpoolStats()
	}
	return true
}

// deliverOrPark handles a fresh profile when the spool backlog is
// empty: deliver it now, or park it when the breaker holds deliveries
// back or every attempt fails — with a spool, "retries exhausted"
// means "not now", not "never". It reports false when the profile was
// parked, so a closing pusher stops trying.
func (p *Pusher) deliverOrPark(prof *Profile) bool {
	seq := p.allocSeq()
	if p.breakerHeld() {
		p.park(seq, prof, DropBreakerOpen)
		return false
	}
	body, ctype, err := p.encode(prof)
	if err != nil {
		p.errors.Add(1)
		p.drop(DropEncode)
		return true
	}
	switch res := p.trySend(body, ctype, seq); res {
	case sendOK:
	case sendRejected:
		p.drop(DropRejected)
	default:
		// The daemon may have processed an attempt whose ack was lost;
		// spooling under the same sequence keeps the retry dedupable.
		p.park(seq, prof, parkReason[res])
		return false
	}
	return true
}

// sendResult is one trySend outcome.
type sendResult int

const (
	// sendOK: delivered and acked.
	sendOK sendResult = iota
	// sendRejected: the daemon gave a permanent verdict (see
	// permanentStatus); resending the same bytes cannot succeed.
	sendRejected
	// sendHeld: the breaker opened and holds deliveries back.
	sendHeld
	// sendExhausted: every attempt failed.
	sendExhausted
	// sendQuit: the pusher began closing mid-backoff.
	sendQuit
)

// parkReason is the drop reason a pusher without a spool counts for
// each undelivered outcome.
var parkReason = [...]string{sendHeld: DropBreakerOpen, sendExhausted: DropRetries, sendQuit: DropClosed}

// trySend attempts delivery with bounded, full-jittered retries. A
// permanent verdict ends it at once, uncharged to the breaker; every
// other failure charges the breaker, and once it opens the attempt
// ends or waits per breakerHeld.
func (p *Pusher) trySend(body []byte, ctype string, seq uint64) sendResult {
	backoff := p.opts.Backoff
	for attempt := 0; ; attempt++ {
		retryAfter, status, ok := p.post(body, ctype, seq)
		if ok {
			p.recovered()
			p.breakerSuccess()
			return sendOK
		}
		p.errors.Add(1)
		if permanentStatus(status) {
			return sendRejected
		}
		p.breakerFailure(retryAfter)
		if attempt >= p.opts.Retries {
			return sendExhausted
		}
		if p.breakerHeld() {
			return sendHeld
		}
		p.retries.Add(1)
		if !p.pause(p.jitterFull(backoff)) {
			return sendQuit
		}
		backoff *= 2
	}
}

// permanentStatus reports whether an ingest answer is a verdict that
// resending the identical bytes cannot change: any 4xx except 408 (a
// timeout, not a verdict), 409 (ring skew heals) and 429 (overload is
// retryable by definition) — the rule cluster.PeerDownError.Permanent
// applies between peers. Transport failures (status 0) and 5xx are
// never permanent.
func permanentStatus(status int) bool {
	switch status {
	case http.StatusRequestTimeout, http.StatusConflict, http.StatusTooManyRequests:
		return false
	}
	return status >= 400 && status < 500
}

// breakerHeld reports whether an open breaker holds deliveries back.
// A spooled pusher never waits — the spool is the wait room. Without a
// spool there is nowhere to park, so the interval is waited out, and
// the breaker holds only if the pusher began closing first: the
// profile is abandoned rather than out-waiting a daemon that said stop.
func (p *Pusher) breakerHeld() bool {
	wait := time.Until(p.brOpenTill)
	if wait <= 0 {
		return false
	}
	if p.sp != nil {
		return true
	}
	p.pause(wait)
	return time.Until(p.brOpenTill) > 0
}

// jitterFull draws uniformly from (0, d] — "full jitter". Retry
// backoff uses it so a fleet of pushers knocked over by one outage
// spreads its retries across the whole interval instead of thundering
// back together.
func (p *Pusher) jitterFull(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(p.rng.Int63n(int64(d))) + 1
}

// jitterEqual draws uniformly from [d/2, d] — "equal jitter". Breaker
// cooldowns use it: half the interval is kept as a guaranteed quiet
// period (the daemon asked for silence), the other half decorrelates
// the fleet's re-probes.
func (p *Pusher) jitterEqual(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(p.rng.Int63n(int64(d-half)+1))
}

// breakerFailure records a failed attempt, opening the breaker after
// BreakerThreshold consecutive failures — or immediately for the
// daemon-advertised retryAfter of a shedding response. With a peer
// list it also rotates the delivery target, so the threshold is only
// reached after every peer had a turn failing — one dead node never
// opens the breaker by itself, while a Retry-After (the owner
// shedding, same answer via any entry node) still opens it at once.
func (p *Pusher) breakerFailure(retryAfter time.Duration) {
	if len(p.urls) > 1 {
		p.urlIdx = (p.urlIdx + 1) % len(p.urls)
		p.url = p.urls[p.urlIdx]
		p.failovers.Add(1)
	}
	p.brFails++
	open := time.Duration(0)
	if retryAfter > 0 {
		// The advertised interval is a floor — the daemon asked for that
		// much silence — so jitter is upward-only: honor it exactly, then
		// add up to a quarter more to spread the fleet's return.
		open = retryAfter + p.jitterFull(retryAfter/4+1)
	} else if p.brFails >= p.opts.BreakerThreshold {
		open = p.jitterEqual(p.brCooldown)
		if p.brCooldown *= 2; p.brCooldown > 30*time.Second {
			p.brCooldown = 30 * time.Second
		}
	}
	if open > 0 {
		// A trip is the closed-to-open transition only — extending an
		// already-open interval (several in-flight attempts hitting one
		// shedding episode) is the same trip.
		wasOpen := time.Until(p.brOpenTill) > 0
		if till := time.Now().Add(open); till.After(p.brOpenTill) {
			p.brOpenTill = till
		}
		if !wasOpen {
			p.trips.Add(1)
		}
	}
}

// breakerSuccess closes the breaker after a successful (half-open or
// regular) delivery.
func (p *Pusher) breakerSuccess() {
	p.brFails = 0
	p.brCooldown = p.opts.BreakerCooldown
	p.brOpenTill = time.Time{}
}

// encode serializes one profile per the pusher's current wire format,
// reusing the sender's buffers. The returned body aliases those buffers
// and is valid until the next encode.
func (p *Pusher) encode(prof *Profile) (body []byte, ctype string, err error) {
	if p.binary {
		p.encBuf, err = prof.AppendBinary(p.encBuf[:0])
		if err != nil {
			return nil, "", err
		}
		return p.encBuf, BinaryContentType, nil
	}
	p.jsonBuf.Reset()
	if err := prof.WriteJSONCompact(&p.jsonBuf); err != nil {
		return nil, "", err
	}
	return p.jsonBuf.Bytes(), "application/json", nil
}

// Idempotency-key headers: the daemon journals (pusher, seq) with each
// batch and re-acks duplicates without re-merging.
const (
	PusherIDHeader  = "X-Witch-Pusher"
	PusherSeqHeader = "X-Witch-Seq"
)

// post performs one ingest attempt, reporting the HTTP status (0 for
// transport errors) and any daemon-advertised Retry-After so the
// breaker can honor it. Every request carries the idempotency key.
func (p *Pusher) post(body []byte, ctype string, seq uint64) (retryAfter time.Duration, status int, ok bool) {
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, false
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set(PusherIDHeader, p.id)
	req.Header.Set(PusherSeqHeader, strconv.FormatUint(seq, 10))
	// Each attempt mints a fresh trace: the pusher's POST is the root
	// span of whatever forward/replicate tree the fleet builds for it.
	var t0 time.Time
	if p.hist != nil {
		sc := obs.NewSpanContext()
		req.Header.Set(obs.TraceHeader, sc.String())
		tid := obs.FormatTraceID(sc.Trace)
		p.lastTrace.Store(&tid)
		t0 = time.Now()
	}
	resp, err := p.opts.Client.Do(req)
	if p.hist != nil {
		p.hist.Observe(time.Since(t0))
	}
	if err != nil {
		return 0, 0, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return 0, resp.StatusCode, true
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	}
	return retryAfter, resp.StatusCode, false
}

// parseRetryAfter reads both RFC 9110 Retry-After forms: delay-seconds
// and HTTP-date.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
