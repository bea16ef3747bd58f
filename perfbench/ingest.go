package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/witch"
)

const (
	// ackLimitMS is the latency limit max_ack_rate is held to: p99 ack
	// latency from the due time at or under it, with a failed batch
	// counting as over it.
	ackLimitMS = 50
	// ingestPushers is the fleet size; half push JSON, half binary.
	ingestPushers = 8
	// ingestRefRate is the fixed reference rate (batches/s) at which
	// the ingest workload reports ack latency.
	ingestRefRate = 150
	// lateLimitMS marks a run's open-loop latency figures invalid: the
	// generator itself fell behind its schedule at the p99 by more than
	// this, half the latency limit.
	lateLimitMS = 25

	// minRungAcks is the fewest batches a ladder rung offers, so the
	// rung's p99 has ten samples beyond it.
	minRungAcks = 1000
	// burstBatches are offered at once before the ladder: the daemon
	// is saturated until the last is acked, so its CPU per ack is the
	// cost of the work itself rather than of waking idle goroutines,
	// which on a shared host varies with the host's load.
	burstBatches = 1500
	// burstOffer is how long the generator takes to offer the burst.
	burstOffer = 100 * time.Millisecond
)

// fleetProfiles builds the DeadCraft profile of every suite program,
// as the pushers would ship them at the default period.
func fleetProfiles(suite []suiteProgram, seed int64) ([]*witch.Profile, error) {
	out := make([]*witch.Profile, len(suite))
	for i, sp := range suite {
		p, err := witch.Run(sp.prog, witch.Options{Tool: witch.DeadStores, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		out[i] = p
	}
	return out, nil
}

// picker assigns each offered batch to pusher i mod n and to one of
// that pusher's programs, drawn from the seed. Program j belongs to
// pusher j mod n only, so no two partitions ever hold the same pair and
// every merged view sums in one fixed order — which is what lets the
// checks demand byte-identical bodies.
func picker(seed int64, pushers int, profs []*witch.Profile) func(i int) (int, *witch.Profile) {
	rng := rand.New(rand.NewSource(seed))
	own := make([][]*witch.Profile, pushers)
	for j, p := range profs {
		own[j%pushers] = append(own[j%pushers], p)
	}
	return func(i int) (int, *witch.Profile) {
		p := i % pushers
		return p, own[p][rng.Intn(len(own[p]))]
	}
}

// drive offers batches at a fixed rate for dur and returns the record
// range it offered and the generator's lateness, in ms.
func drive(fl *fleet, rate float64, dur time.Duration, pick func(i int) (int, *witch.Profile)) (lo, hi int, late []float64) {
	lo = fl.mark()
	start := time.Now().Add(time.Millisecond)
	lateness := openLoop(realClock{}, start, start.Add(dur), rate, func(i int, due time.Time) {
		p, prof := pick(i)
		fl.offer(p, prof, due)
	})
	for _, l := range lateness {
		late = append(late, ms(l))
	}
	return lo, fl.mark(), late
}

type ingestRig struct {
	suite []suiteProgram
	profs []*witch.Profile
	n     *node
	fl    *fleet
	dir   string
}

func (r *ingestRig) teardown() {
	if r == nil {
		return
	}
	r.fl.close()
	r.n.stop()
}

// runIngest is the write path alone: one durable daemon (group commit,
// no linger, default snapshot cadence, journal on real files plus the
// modelled fsync), an open-loop fleet of pushers over the in-memory
// transport. It offers a burst that saturates the daemon, for the CPU
// per ack, measures ack latency at the reference rate, the ladder's
// rung 0, then climbs the ladder for max_ack_rate. The primary
// operation is one ack.
func runIngest(e *env, traced bool) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	rig, setupS, err := timedSetup(e.setups, func(k int) (*ingestRig, error) {
		suite, err := buildSuite(false)
		if err != nil {
			return nil, err
		}
		profs, err := fleetProfiles(suite, e.seed)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("ingest-traced%v-%d", traced, k))
		net := &memNet{tr: tr, hosts: map[string]http.Handler{}}
		n, err := bootNode(nodeConfig{url: "http://ingest", dir: dir, now: frozenClock, observed: traced})
		if err != nil {
			return nil, err
		}
		net.hosts["ingest"] = n.h
		fl, err := newFleet(ingestPushers, []string{"http://ingest"}, net, tr, traced)
		if err != nil {
			n.stop()
			return nil, err
		}
		// Warm the pools, the journal and the decoder before timing.
		pick := picker(e.seed^0x5eed, ingestPushers, profs)
		lo, hi, _ := drive(fl, 500, 300*time.Millisecond, pick)
		if !fl.wait(lo, hi, time.Now().Add(10*time.Second)) {
			return nil, fmt.Errorf("warm-up batches never acked")
		}
		return &ingestRig{suite, profs, n, fl, dir}, nil
	}, (*ingestRig).teardown)
	if err != nil {
		return nil, err
	}
	ph.setupS = setupS
	fl, n := rig.fl, rig.n
	pick := picker(e.seed, ingestPushers, rig.profs)
	heap := watchHeap()

	// The burst: op_cpu_ms and the saturated ack rate.
	cpu0, t0 := cpuTime(), time.Now()
	lo, hi, _ := drive(fl, burstBatches/burstOffer.Seconds(), burstOffer, pick)
	if !fl.wait(lo, hi, time.Now().Add(60*time.Second)) {
		return nil, fmt.Errorf("burst of %d batches never drained", hi-lo)
	}
	burstAck, _, offered, failed := latencies(fl.slice(lo, hi))
	ph.attempted += int64(offered)
	ph.failed += int64(failed)
	ph.opCPU = ratio(ms(cpuTime()-cpu0), float64(len(burstAck)))
	satRate := float64(len(burstAck)) / time.Since(t0).Seconds()
	fmt.Printf("ingest: burst of %d batches: %.4f CPU ms per ack, %.1f acks/s saturated\n", offered, ph.opCPU, satRate)

	// The ladder. Rung 0 is the reference rate and runs for the
	// measured seconds; its acks give the latency figures.
	// Every rung runs for at least minRungAcks batches, so its p99
	// keeps ten samples beyond it. A rung passes when no batch failed,
	// the p99 ack latency is within ackLimitMS, the generator kept its
	// schedule and the backlog did not grow over the rung's second
	// half.
	var (
		ack, wait, refLate []float64
		gang               float64
		ladderErr          error
	)
	probe := func(k int) bool {
		if ladderErr != nil {
			return false
		}
		rate := rungRate(k)
		dur := time.Duration(minRungAcks / rate * float64(time.Second))
		if k == 0 {
			dur = max(dur, e.seconds)
		}
		commits0 := n.pers.JournalCommits()
		lo, hi, late := drive(fl, rate, dur, pick)
		settled := fl.wait(lo, hi, time.Now().Add(20*time.Second))
		recs := fl.slice(lo, hi)
		rungAck, rungWait, offered, failed := latencies(recs)
		ph.attempted += int64(offered)
		ph.failed += int64(failed)
		if !settled {
			ladderErr = fmt.Errorf("rung %.0f/s: backlog never drained", rate)
			return false
		}
		start := recs[0].due
		growth := backlog(recs, start.Add(dur)) - backlog(recs, start.Add(dur/2))
		p99 := quantile(rungAck, 0.99)
		lp := quantile(late, 0.99)
		ok := failed == 0 && p99 <= ackLimitMS && lp <= lateLimitMS && growth <= ingestPushers+offered/100
		fmt.Printf("  rung %7.1f/s for %5.2fs: %5d batches, ack p99 %8.3f ms, backlog growth %4d, late p99 %6.3f ms -> %v\n",
			rate, dur.Seconds(), offered, p99, growth, lp, ok)
		if k == 0 {
			ack, wait, refLate = rungAck, rungWait, late
			gang = ratio(float64(len(rungAck)), float64(n.pers.JournalCommits()-commits0))
		}
		return ok
	}
	// When the reference rate itself fails, max_ack_rate is 0: rungs
	// below it take longer than a run may (1000 batches at 75/s is 13
	// seconds a rung).
	maxRate := 0.0
	if probe(0) {
		maxRate = rungRate(ladderClimb(0, ladderTop, ladderPerOctave, probe))
	}
	if ladderErr != nil {
		return nil, ladderErr
	}
	ph.lat = summarize(ack)
	lateP99 := quantile(refLate, 0.99)
	fmt.Printf("ingest: reference %d/s: ack p50 %.3f ms p99 %.3f ms over %d acks, gang %.2f, generator late p99 %.3f ms; max_ack_rate %.1f/s\n",
		ingestRefRate, ph.lat.p50, ph.lat.p99, ph.lat.n, gang, lateP99, maxRate)
	fl.close()
	ph.heapMB = heap.end()
	ps := fl.stats()
	total := fl.mark()
	all := fl.slice(0, total)
	var acked, offeredAll, bodyBytes int64
	for _, r := range all {
		if !r.dropped {
			offeredAll++
		}
		if !r.acked.IsZero() {
			acked++
			bodyBytes += r.bytes
		}
	}
	ph.layer["ack_p50_ms"] = ph.lat.p50
	ph.layer["ack_p99_ms"] = ph.lat.p99
	ph.layer["max_ack_rate"] = maxRate
	ph.layer["saturated_ack_rate"] = satRate
	ph.layer["failed_frac"] = ratio(float64(ph.failed), float64(ph.attempted))
	ph.layer["bench.lateness_ms.p99"] = lateP99
	ph.layer["witch.push_wait_ms.p50"] = quantile(wait, 0.5)
	ph.layer["witch.push_wait_ms.p99"] = quantile(wait, 0.99)
	ph.layer["witch.retries"] = float64(ps.Retries)
	ph.layer["witch.drops"] = float64(ps.Dropped)
	ph.layer["wal.mean_gang"] = gang
	m := scrape(n.h)
	ph.layer["daemon.shed"] = m["witchd_ingest_shed_total"]
	ph.layer["daemon.rejected"] = m["witchd_ingest_rejected_total"]
	ph.layer["store.live_pairs"] = m["witchd_store_live_pairs"]
	if traced {
		nodes := []*node{n}
		spans := tr.snapshot()
		d := spanDurations(spans, "daemon.ingest")
		ph.layer["daemon.ingest_ms.p50"] = quantile(d, 0.5)
		ph.layer["daemon.ingest_ms.p99"] = quantile(d, 0.99)
		ph.layer["daemon.decode_us.p50"] = us(stage(nodes, obs.StageDecode, 0.5))
		ph.layer["daemon.dedup_us.p99"] = us(stage(nodes, obs.StageDedup, 0.99))
		ph.layer["wal.commit_ms.p50"] = ms(stage(nodes, obs.StageJournal, 0.5))
		ph.layer["wal.commit_ms.p99"] = ms(stage(nodes, obs.StageJournal, 0.99))
		ph.layer["agg.merge_us.p50"] = us(stage(nodes, obs.StageMerge, 0.5))
		if err := codecCosts(rig.profs, ph.layer); err != nil {
			return nil, err
		}
		ph.spans = spans
	}

	// Checks: every offered batch was sent and merged exactly once, and
	// the daemon recovers to the same bytes it served.
	var problems []string
	if ps.Sent != uint64(offeredAll) {
		problems = append(problems, fmt.Sprintf("pushers sent %d of %d offered", ps.Sent, offeredAll))
	}
	if got := uint64(m["witchd_store_ingested_profiles_total"]); got != uint64(acked) {
		problems = append(problems, fmt.Sprintf("store ingested %d, %d acked", got, acked))
	}
	warnLate(lateP99)
	before := profileBodies(n.h, rig.suite)
	if err := n.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	ph.layer["wal.disk_bytes_per_body_byte"] = ratio(float64(dirBytes(rig.dir)), float64(bodyBytes))
	rec, err := bootNode(nodeConfig{url: "http://ingest", dir: rig.dir, now: frozenClock})
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	after := profileBodies(rec.h, rig.suite)
	rec.stop()
	for i, sp := range rig.suite {
		if before[i] == nil || !bytes.Equal(before[i], after[i]) {
			problems = append(problems, fmt.Sprintf("/v1/profile %s differs after recovery", sp.name))
			break
		}
	}
	if len(problems) > 0 {
		ph.check = fmt.Errorf("%v", problems)
	}
	return ph, nil
}

// warnLate marks the open-loop latency figures of a run invalid when
// the generator fell behind its own schedule. That says the host did
// not give the generator its CPU, not that the program is wrong, so the
// run's checks and CPU figures stand.
func warnLate(lateP99 float64) {
	if lateP99 > lateLimitMS {
		fmt.Printf("INVALID latency figures: the generator fell behind, lateness p99 %.2f ms over %d ms\n", lateP99, lateLimitMS)
	}
}

// frozenClock pins the daemons' clock, so every batch lands in one
// retention bucket whenever the run happens.
func frozenClock() time.Time { return time.Unix(1700000000, 0) }

// fleetTool is the tool name DeadCraft profiles carry.
const fleetTool = "DeadCraft"

// profileBodies fetches /v1/profile for every suite program; a program
// the daemon cannot serve gets a nil body.
func profileBodies(h http.Handler, suite []suiteProgram) [][]byte {
	out := make([][]byte, len(suite))
	for i, sp := range suite {
		if code, body, _ := get(h, "/v1/profile?tool="+fleetTool+"&program="+sp.name); code == http.StatusOK {
			out[i] = body
		}
	}
	return out
}

// codecCosts replays the public codec calls on the fleet's own
// profiles: mean µs per encode and decode, and mean body size, per
// wire encoding.
func codecCosts(profs []*witch.Profile, layer map[string]float64) error {
	const reps = 200
	var dec witch.BatchDecoder
	var jsonBuf bytes.Buffer
	var bin []byte
	var encJ, encB, decJ, decB time.Duration
	var sizeJ, sizeB int
	for _, p := range profs {
		// Each call once, checked; then timed.
		var err error
		jsonBuf.Reset()
		if err = p.WriteJSONCompact(&jsonBuf); err == nil {
			if bin, err = p.AppendBinary(bin[:0]); err == nil {
				if _, err = dec.Decode(jsonBuf.Bytes()); err == nil {
					_, err = dec.Decode(bin)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("codec replay on %s: %w", p.Program, err)
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			jsonBuf.Reset()
			p.WriteJSONCompact(&jsonBuf)
		}
		encJ += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			bin, _ = p.AppendBinary(bin[:0])
		}
		encB += time.Since(t0)
		sizeJ += jsonBuf.Len()
		sizeB += len(bin)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			dec.Decode(jsonBuf.Bytes())
		}
		decJ += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			dec.Decode(bin)
		}
		decB += time.Since(t0)
	}
	n := float64(len(profs) * reps)
	layer["witch.encode_us.json"] = us(encJ) / n
	layer["witch.encode_us.binary"] = us(encB) / n
	layer["witch.decode_us.json"] = us(decJ) / n
	layer["witch.decode_us.binary"] = us(decB) / n
	layer["witch.body_bytes.json"] = float64(sizeJ) / float64(len(profs))
	layer["witch.body_bytes.binary"] = float64(sizeB) / float64(len(profs))
	return nil
}
