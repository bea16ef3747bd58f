package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/witch"
)

const (
	// The 125k-pair seed: 50 programs × 2500 pairs.
	queryPrograms = 50
	queryPairs    = 2500
	// trickleRate is the open-loop ingest beside the readers, in
	// batches/s; each batch bumps the store epoch.
	trickleRate    = 2
	tricklePushers = 2
	tricklePairs   = 20
	// seedSpan spreads the seed batches over this much virtual time,
	// longer than the 60 one-minute buckets, so part of the seed has
	// already rolled up when the run starts.
	seedSpan = 150 * time.Minute
	// readerRate is each closed-loop reader's pace, queries/s. Paced
	// readers do the same work per second on a fast host and a slow
	// one, so the trickle's and the clock's invalidations hit the same
	// share of queries either way.
	readerRate = 15
	// clockTicks is how many one-minute bucket boundaries the virtual
	// clock crosses during the measured seconds.
	clockTicks = 5
)

// syntheticProfile is one program's batch: n pairs with small integer
// waste and use, so sums are exact in any order.
func syntheticProfile(program string, n, first int, rng *rand.Rand) *witch.Profile {
	pairs := make([]witch.Pair, 0, n)
	for i := first; i < first+n; i++ {
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("%s_store_%06d", program, i),
			Dst:   fmt.Sprintf("%s_load_%06d", program, i),
			Chain: fmt.Sprintf("%s:s%06d->l%06d", program, i, i),
			Waste: float64(rng.Intn(200)), Use: float64(rng.Intn(200)),
		})
	}
	return witch.NewProfile(witch.Profile{
		Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1,
	}, pairs)
}

func queryProgram(i int) string { return fmt.Sprintf("qprog-%02d", i) }

// virtualClock is the daemons' clock on the query workload. Ticks take
// the guard's write side and trickle sends hold its read side, so the
// time read at a batch's ack is the time the daemon ingested it at,
// and the oracle can replay the batch at that time.
type virtualClock struct {
	ns    atomic.Int64
	guard sync.RWMutex
}

func (c *virtualClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

func (c *virtualClock) set(t time.Time) {
	c.guard.Lock()
	c.ns.Store(t.UnixNano())
	c.guard.Unlock()
}

type queryRig struct {
	clk     *virtualClock
	cached  *node
	fl      *fleet
	trickle []*witch.Profile
	net     *memNet
}

func (r *queryRig) teardown() {
	if r != nil {
		r.fl.close()
	}
}

// seedQuery loads the 125k-pair seed into a daemon, moving its clock
// so the seed spreads over seedSpan, and leaves the clock at base. It
// returns the trickle profiles, drawn from the same seed after the
// seed batches, so two calls with one seed load the same bytes.
func seedQuery(h http.Handler, clk *virtualClock, base time.Time, seed int64) ([]*witch.Profile, error) {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for i := 0; i < queryPrograms; i++ {
		clk.set(base.Add(-seedSpan + time.Duration(i)*seedSpan/queryPrograms))
		buf.Reset()
		if err := syntheticProfile(queryProgram(i), queryPairs, 0, rng).WriteJSONCompact(&buf); err != nil {
			return nil, err
		}
		if err := post(h, buf.Bytes(), "application/json", "", 0); err != nil {
			return nil, err
		}
	}
	clk.set(base)
	trickle := make([]*witch.Profile, 64)
	for i := range trickle {
		trickle[i] = syntheticProfile(queryProgram(rng.Intn(queryPrograms)), tricklePairs, queryPairs+i*tricklePairs, rng)
	}
	return trickle, nil
}

// queryViews are the views the readers draw from, each equally
// likely: /v1/top at several n and windows (few enough to fit the
// rendered cache) and /v1/profile of every program (more views than
// survive an epoch bump). Nothing in the repository records what
// shares real readers send; the uniform draw is a fixed choice, not a
// measured mix, and it makes most reads /v1/profile (50 of 59 views).
func queryViews() (views []string, isTop []bool) {
	for _, n := range []int{10, 20, 100} {
		for _, w := range []string{"", "&window=15m", "&window=60m"} {
			views = append(views, fmt.Sprintf("/v1/top?tool=dead&n=%d%s", n, w))
			isTop = append(isTop, true)
		}
	}
	for i := 0; i < queryPrograms; i++ {
		views = append(views, "/v1/profile?tool=dead&program="+queryProgram(i))
		isTop = append(isTop, false)
	}
	return views, isTop
}

// runQuery is the read-heavy workload: nproc closed-loop clients query
// a daemon holding the 125k-pair seed while a trickle of ingest runs
// beside them and the virtual clock crosses bucket boundaries. The
// primary operation is one query.
func runQuery(e *env, traced bool) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	base := time.Unix(1700000000, 0)
	views, isTop := queryViews()
	rig, setupS, err := timedSetup(e.setups, func(int) (*queryRig, error) {
		clk := &virtualClock{}
		cached, err := bootNode(nodeConfig{url: "http://query", now: clk.now, observed: traced})
		if err != nil {
			return nil, err
		}
		trickle, err := seedQuery(cached.h, clk, base, e.seed)
		if err != nil {
			return nil, err
		}
		net := &memNet{tr: tr, hosts: map[string]http.Handler{"query": cached.h}}
		fl, err := newFleet(tricklePushers, []string{"http://query"}, net, tr, traced)
		if err != nil {
			return nil, err
		}
		fl.guard, fl.vclock = &clk.guard, clk.now
		// Warm the caches the readers will use.
		for _, v := range views {
			if code, _, _ := get(cached.h, v); code != http.StatusOK {
				return nil, fmt.Errorf("warm-up %s: HTTP %d", v, code)
			}
		}
		return &queryRig{clk, cached, fl, trickle, net}, nil
	}, (*queryRig).teardown)
	if err != nil {
		return nil, err
	}
	ph.setupS = setupS
	clk, cached, fl := rig.clk, rig.cached, rig.fl
	st0 := cached.st.CacheStats()
	vh0, vm0 := cached.srv.ViewCacheStats()
	heap := watchHeap()

	// Closed-loop readers, paced.
	clients := runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	type done struct {
		ms  float64
		top bool
	}
	lat := make([][]done, clients)
	fails := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1000 + int64(c)))
			pacedLoop(realClock{}, stop, readerRate, func() {
				v := rng.Intn(len(views))
				req, _ := http.NewRequest(http.MethodGet, "http://query"+views[v], nil)
				t0 := time.Now()
				resp, err := rig.net.RoundTrip(req)
				d := time.Since(t0)
				if err != nil || resp.StatusCode != http.StatusOK {
					fails[c]++
					return
				}
				lat[c] = append(lat[c], done{ms(d), isTop[v]})
			})
		}(c)
	}
	// The clock: clockTicks bucket crossings spread over the run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= clockTicks; k++ {
			select {
			case <-stop:
				return
			case <-time.After(e.seconds / (clockTicks + 1)):
			}
			clk.set(base.Add(time.Duration(k) * time.Minute))
		}
	}()
	// The trickle, open loop.
	pickRng := rand.New(rand.NewSource(e.seed + 7))
	start, cpu0 := time.Now(), cpuTime()
	lo, hi, late := drive(fl, trickleRate, e.seconds, func(i int) (int, *witch.Profile) {
		return i % tricklePushers, rig.trickle[pickRng.Intn(len(rig.trickle))]
	})
	close(stop)
	wg.Wait()
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	fl.wait(lo, hi, time.Now().Add(10*time.Second))
	fl.close()
	ph.heapMB = heap.end()

	var qlat, topLat, profLat []float64
	qfail := 0
	for c := range lat {
		qfail += fails[c]
		for _, d := range lat[c] {
			qlat = append(qlat, d.ms)
			if d.top {
				topLat = append(topLat, d.ms)
			} else {
				profLat = append(profLat, d.ms)
			}
		}
	}
	ack, _, offered, failed := latencies(fl.slice(lo, hi))
	ph.lat = summarize(qlat)
	ph.opCPU = ratio(ms(cpu), float64(len(qlat)))
	ph.attempted = int64(len(qlat) + qfail + offered)
	ph.failed = int64(qfail + failed)
	acks := summarize(ack)
	tops, profs := summarize(topLat), summarize(profLat)
	fmt.Printf("query: %d queries (%d failed) in %v: /v1/top %d (p50 %.3f ms, p99 %.3f ms), /v1/profile %d (p50 %.3f ms, p99 %.3f ms); %d trickle batches (ack p50 %.3f ms, p99 over %d samples %.3f ms)\n",
		len(qlat), qfail, elapsed.Round(time.Millisecond), tops.n, tops.p50, tops.p99, profs.n, profs.p50, profs.p99,
		offered, acks.p50, acks.n, acks.p99)

	ph.layer["query_p50_ms"] = ph.lat.p50
	ph.layer["query_p99_ms"] = ph.lat.p99
	ph.layer["query_top_p50_ms"] = tops.p50
	ph.layer["query_top_p99_ms"] = tops.p99
	ph.layer["query_profile_p50_ms"] = profs.p50
	ph.layer["query_profile_p99_ms"] = profs.p99
	ph.layer["queries_per_s"] = float64(len(qlat)) / elapsed.Seconds()
	ph.layer["ack_p50_ms"] = acks.p50
	ph.layer["ack_p99_ms"] = acks.p99
	ph.layer["failed_frac"] = ratio(float64(ph.failed), float64(ph.attempted))
	ph.layer["bench.lateness_ms.p99"] = quantile(late, 0.99)
	st := cached.st.CacheStats()
	ph.layer["store.memo_hit_frac"] = ratio(float64(st.QueryHits-st0.QueryHits), float64(st.QueryHits-st0.QueryHits+st.QueryMisses-st0.QueryMisses))
	vh, vm := cached.srv.ViewCacheStats()
	ph.layer["daemon.view_hit_frac"] = ratio(float64(vh-vh0), float64(vh-vh0+vm-vm0))
	ss := cached.st.Stats()
	ph.layer["store.live_pairs"] = float64(ss.LivePairs)
	ph.layer["store.rollup_pairs"] = float64(ss.RollupPairs)
	ph.layer["store.evicted_buckets"] = float64(ss.EvictedBuckets)
	m := scrape(cached.h)
	ph.layer["daemon.shed"] = m["witchd_ingest_shed_total"]
	ph.layer["daemon.rejected"] = m["witchd_ingest_rejected_total"]

	// The oracle, built only now so that neither its copy of the seed
	// nor its feed runs in the timed phase: an uncached daemon loaded
	// with the same seed, then every acked trickle batch at the virtual
	// time the daemon under test ingested it.
	oclk := &virtualClock{}
	oracle, err := bootNode(nodeConfig{url: "http://oracle", now: oclk.now, noCache: true})
	if err != nil {
		return nil, err
	}
	if _, err := seedQuery(oracle.h, oclk, base, e.seed); err != nil {
		return nil, err
	}
	var problems []string
	if err := fl.replay(oracle.h, oclk.set); err != nil {
		problems = append(problems, err.Error())
	}
	oclk.set(clk.now())

	if traced {
		nodes := []*node{cached}
		spans := tr.snapshot()
		d := spanDurations(spans, "daemon.query")
		ph.layer["daemon.query_ms.p50"] = quantile(d, 0.5)
		ph.layer["daemon.query_ms.p99"] = quantile(d, 0.99)
		ph.layer["store.fold_ms.p50"] = ms(stage(nodes, obs.StageFold, 0.5))
		ph.layer["store.fold_ms.p99"] = ms(stage(nodes, obs.StageFold, 0.99))
		ph.layer["agg.merge_us.p50"] = us(stage(nodes, obs.StageMerge, 0.5))
		// The base path, timed on the uncached oracle.
		var qms, tms []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			a := oracle.st.Query(0)
			qms = append(qms, ms(time.Since(t0)))
			t0 = time.Now()
			a.SnapshotTop(string(witch.DeadStores), "", 20)
			tms = append(tms, ms(time.Since(t0)))
		}
		ph.layer["store.uncached_query_ms"] = median(qms)
		ph.layer["agg.top_ms"] = median(tms)
		ph.spans = spans
	}

	// Check: sampled views are byte-identical to the oracle's.
	rng := rand.New(rand.NewSource(e.seed + 13))
	var sample []string
	for k := 0; k < 2; k++ {
		sample = append(sample, views[rng.Intn(len(views)-queryPrograms)])
	}
	for k := 0; k < 4; k++ {
		sample = append(sample, views[len(views)-queryPrograms+rng.Intn(queryPrograms)])
	}
	for _, v := range sample {
		cc, cb, _ := get(cached.h, v)
		oc, ob, _ := get(oracle.h, v)
		if cc != http.StatusOK || cc != oc || !bytes.Equal(cb, ob) {
			problems = append(problems, fmt.Sprintf("GET %s: daemon (HTTP %d) differs from the oracle (HTTP %d)", v, cc, oc))
		}
	}
	if len(problems) > 0 {
		ph.check = fmt.Errorf("%v", problems)
	}
	return ph, nil
}
