package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/witch"
)

const (
	ringNodes = 3
	ringRF    = 2
	// replicatedRate is the fixed open-loop ingest rate (batches/s).
	replicatedRate    = 150
	replicatedPushers = 6
	// replicatedReaderRate paces the closed-loop reader, queries/s, so
	// the ring does the same work per second on a fast host and a slow
	// one.
	replicatedReaderRate = 150
)

type replicatedRig struct {
	suite []suiteProgram
	profs []*witch.Profile
	nodes []*node
	net   *memNet
	fl    *fleet
}

func (r *replicatedRig) teardown() {
	if r == nil {
		return
	}
	r.fl.close()
	for _, n := range r.nodes {
		n.stop()
	}
}

// runReplicated is a 3-node RF=2 ring in one process over the in-memory
// transport. Pusher i enters at node i mod 3, so most batches forward
// and every ack waits for a replica; one closed-loop client sends
// /v1/top to a rotating coordinator, so every query scatters. The
// primary operation is one ack.
func runReplicated(e *env, traced bool) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	rig, setupS, err := timedSetup(e.setups, func(k int) (*replicatedRig, error) {
		suite, err := buildSuite(false)
		if err != nil {
			return nil, err
		}
		profs, err := fleetProfiles(suite, e.seed)
		if err != nil {
			return nil, err
		}
		net := &memNet{tr: tr, hosts: map[string]http.Handler{}}
		var urls []string
		for i := 0; i < ringNodes; i++ {
			urls = append(urls, fmt.Sprintf("http://node%d", i))
		}
		rig := &replicatedRig{suite: suite, profs: profs, net: net}
		for i, u := range urls {
			n, err := bootNode(nodeConfig{
				url: u, dir: filepath.Join(e.dir, fmt.Sprintf("ring-traced%v-%d-node%d", traced, k, i)),
				now: frozenClock, observed: traced, peers: urls, rf: ringRF, net: net,
			})
			if err != nil {
				for _, n := range rig.nodes {
					n.stop()
				}
				return nil, err
			}
			rig.nodes = append(rig.nodes, n)
			net.hosts[fmt.Sprintf("node%d", i)] = n.h
		}
		if rig.fl, err = newFleet(replicatedPushers, urls, net, tr, traced); err != nil {
			return nil, err
		}
		// Warm every path: forward, replicate, scatter.
		lo, hi, _ := drive(rig.fl, 200, 300*time.Millisecond, picker(e.seed^0x5eed, replicatedPushers, profs))
		if !rig.fl.wait(lo, hi, time.Now().Add(10*time.Second)) {
			return nil, fmt.Errorf("warm-up batches never acked")
		}
		for i := range rig.nodes {
			if code, body, inc := get(rig.nodes[i].h, "/v1/top?tool="+fleetTool+"&n=20"); code != http.StatusOK || inc != "" {
				return nil, fmt.Errorf("warm-up query on node%d: HTTP %d incomplete=%q %s", i, code, inc, body)
			}
		}
		return rig, nil
	}, (*replicatedRig).teardown)
	if err != nil {
		return nil, err
	}
	ph.setupS = setupS
	fl, nodes := rig.fl, rig.nodes
	before := clusterTotals(nodes)
	heap := watchHeap()

	// One closed-loop reader with a rotating coordinator, paced.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qlat []float64
	qfail := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := 0
		pacedLoop(realClock{}, stop, replicatedReaderRate, func() {
			req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("http://node%d/v1/top?tool="+fleetTool+"&n=20", q%ringNodes), nil)
			q++
			t0 := time.Now()
			resp, err := rig.net.RoundTrip(req)
			d := time.Since(t0)
			if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Witch-Incomplete") != "" {
				qfail++
				return
			}
			qlat = append(qlat, ms(d))
		})
	}()
	start, cpu0 := time.Now(), cpuTime()
	lo, hi, late := drive(fl, replicatedRate, e.seconds, picker(e.seed, replicatedPushers, rig.profs))
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	fl.wait(lo, hi, time.Now().Add(10*time.Second))

	cpu := cpuTime() - cpu0
	ack, wait, offered, failed := latencies(fl.slice(lo, hi))
	ph.lat = summarize(ack)
	ph.opCPU = ratio(ms(cpu), float64(len(ack)))
	qs := summarize(qlat)
	ph.attempted = int64(offered + len(qlat) + qfail)
	ph.failed = int64(failed + qfail)
	lateP99 := quantile(late, 0.99)
	fmt.Printf("replicated: %d batches at %d/s (%d failed), %d queries (%d failed, p50 %.3f ms p99 %.3f ms), generator late p99 %.3f ms\n",
		offered, replicatedRate, failed, len(qlat), qfail, qs.p50, qs.p99, lateP99)

	after := clusterTotals(nodes)
	acked := float64(len(ack))
	queries := float64(len(qlat))
	ph.layer["ack_p50_ms"] = ph.lat.p50
	ph.layer["ack_p99_ms"] = ph.lat.p99
	ph.layer["query_p50_ms"] = qs.p50
	ph.layer["query_p99_ms"] = qs.p99
	ph.layer["queries_per_s"] = float64(len(qlat)) / elapsed.Seconds()
	ph.layer["failed_frac"] = ratio(float64(ph.failed), float64(ph.attempted))
	ph.layer["bench.lateness_ms.p99"] = lateP99
	ph.layer["witch.push_wait_ms.p50"] = quantile(wait, 0.5)
	ph.layer["witch.push_wait_ms.p99"] = quantile(wait, 0.99)
	ps := fl.stats()
	ph.layer["witch.retries"] = float64(ps.Retries)
	ph.layer["witch.drops"] = float64(ps.Dropped)
	ph.layer["cluster.forwards_per_batch"] = ratio(after.forwards-before.forwards, acked)
	ph.layer["cluster.replicates_per_batch"] = ratio(after.replicates-before.replicates, acked)
	ph.layer["cluster.hints_appended"] = after.hints - before.hints
	ph.layer["cluster.scatter_bytes_per_query"] = ratio(after.scatterBytes-before.scatterBytes, queries)
	ph.layer["cluster.delta_leg_frac"] = ratio(after.deltaLegs-before.deltaLegs, after.deltaLegs-before.deltaLegs+after.fullLegs-before.fullLegs)
	ph.layer["cluster.errors"] = after.errors - before.errors
	ph.layer["wal.mean_gang"] = ratio(after.journaled-before.journaled, after.commits-before.commits)
	ph.layer["daemon.shed"] = after.shed - before.shed
	ph.layer["daemon.rejected"] = after.rejected - before.rejected
	if traced {
		spans := tr.snapshot()
		d := spanDurations(spans, "daemon.ingest")
		ph.layer["daemon.ingest_ms.p50"] = quantile(d, 0.5)
		ph.layer["daemon.ingest_ms.p99"] = quantile(d, 0.99)
		d = spanDurations(spans, "daemon.query")
		ph.layer["daemon.query_ms.p50"] = quantile(d, 0.5)
		ph.layer["daemon.query_ms.p99"] = quantile(d, 0.99)
		ph.layer["daemon.decode_us.p50"] = us(stage(nodes, obs.StageDecode, 0.5))
		ph.layer["daemon.dedup_us.p99"] = us(stage(nodes, obs.StageDedup, 0.99))
		ph.layer["wal.commit_ms.p50"] = ms(stage(nodes, obs.StageJournal, 0.5))
		ph.layer["wal.commit_ms.p99"] = ms(stage(nodes, obs.StageJournal, 0.99))
		ph.layer["agg.merge_us.p50"] = us(stage(nodes, obs.StageMerge, 0.5))
		ph.layer["store.fold_ms.p50"] = ms(stage(nodes, obs.StageFold, 0.5))
		ph.layer["store.fold_ms.p99"] = ms(stage(nodes, obs.StageFold, 0.99))
		ph.layer["cluster.replicate_ms.p99"] = ms(stage(nodes, obs.StageReplicate, 0.99))
		ph.layer["cluster.scatter_leg_ms.p99"] = ms(stage(nodes, obs.StageScatter, 0.99))
		ph.spans = spans
	}

	// Check: once every batch is delivered and hints are drained, every
	// node serves every program's /v1/profile byte-identical to a
	// single-node oracle fed every acked batch, and complete. The
	// oracle is built and fed only now, after the timed phase.
	fl.close()
	for _, n := range nodes {
		n.srv.DrainHintsNow(context.Background())
	}
	ph.heapMB = heap.end()
	var problems []string
	warnLate(lateP99)
	oracle, err := bootNode(nodeConfig{url: "http://oracle", now: frozenClock})
	if err != nil {
		return nil, err
	}
	if err := fl.replay(oracle.h, nil); err != nil {
		problems = append(problems, err.Error())
	}
	want := profileBodies(oracle.h, rig.suite)
	for i, n := range nodes {
		for j, sp := range rig.suite {
			code, body, inc := get(n.h, "/v1/profile?tool="+fleetTool+"&program="+sp.name)
			if code != http.StatusOK || inc != "" || !bytes.Equal(body, want[j]) {
				problems = append(problems, fmt.Sprintf("node%d /v1/profile %s: HTTP %d incomplete=%q, equal to oracle %v",
					i, sp.name, code, inc, bytes.Equal(body, want[j])))
				break
			}
		}
	}
	for _, n := range nodes {
		if err := n.stop(); err != nil {
			problems = append(problems, "shutdown: "+err.Error())
		}
	}
	if len(problems) > 0 {
		ph.check = fmt.Errorf("%v", problems)
	}
	return ph, nil
}

// ringTotals sums the ring's public counters.
type ringTotals struct {
	forwards, replicates, hints, scatterBytes, fullLegs, deltaLegs, errors float64
	journaled, commits, shed, rejected                                     float64
}

func clusterTotals(nodes []*node) ringTotals {
	var t ringTotals
	for _, n := range nodes {
		cs := n.cl.StatsSnapshot()
		t.forwards += float64(cs.Forwards)
		t.replicates += float64(cs.Replicates)
		t.scatterBytes += float64(cs.ScatterBytes)
		t.fullLegs += float64(cs.ScatterFullLegs)
		t.deltaLegs += float64(cs.ScatterDeltaLegs)
		t.errors += float64(cs.ForwardErrors + cs.ReplicateErrors + cs.ScatterPartials)
		t.hints += float64(n.srv.ReplicationStats().HintsQueued)
		t.commits += float64(n.pers.JournalCommits())
		m := scrape(n.h)
		t.journaled += m["witchd_ingest_batches_total"] + m["witchd_ingest_replicated_in_total"]
		t.shed += m["witchd_ingest_shed_total"]
		t.rejected += m["witchd_ingest_rejected_total"]
	}
	return t
}
