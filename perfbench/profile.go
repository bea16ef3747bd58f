package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/workloads"
	"repro/witch"
)

// profilePeriod is the dense sampling period of the profile workload: a
// prime near 500, inside Figure 4's sweep, so the sample and trap
// handlers do enough work for their cost to show.
const profilePeriod = 499

// armedPeriod is a period too long to sample: witch.Run arms the PMU
// and pays its per-instruction overhead but never takes a sample.
const armedPeriod = 1 << 40

var crafts = []witch.Tool{witch.DeadStores, witch.SilentStores, witch.RedundantLoads}

type suiteProgram struct {
	name string
	prog *witch.Program
}

// buildSuite builds the 29 suite programs; warm also runs each natively
// once, so the interpreter's first-run costs fall in set-up.
func buildSuite(warm bool) ([]suiteProgram, error) {
	var out []suiteProgram
	for _, sp := range workloads.Suite() {
		p, err := witch.Workload(sp.Name)
		if err != nil {
			return nil, err
		}
		if warm {
			if _, err := p.RunNative(); err != nil {
				return nil, fmt.Errorf("%s: %w", sp.Name, err)
			}
		}
		out = append(out, suiteProgram{sp.Name, p})
	}
	return out, nil
}

// runProfile is the library workload: whole passes over the suite, each
// program run natively and then profiled under DeadCraft, SilentCraft
// and LoadCraft at the dense period, one at a time on one goroutine.
// The primary operation is one witch.Run.
func runProfile(e *env, traced bool) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	suite, setupS, err := timedSetup(e.setups, func(int) ([]suiteProgram, error) { return buildSuite(true) }, func([]suiteProgram) {})
	if err != nil {
		return nil, err
	}
	ph.setupS = setupS
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	rng := rand.New(rand.NewSource(e.seed))
	order := rng.Perm(len(suite))

	type runRec struct {
		prog, tool int
		prof       *witch.Profile
		dur        time.Duration
	}
	var (
		first               []runRec // pass 1, for counts and the accuracy check
		runMS, passRates    []float64
		nativeDur, armedDur time.Duration
		runCPU              time.Duration
		nativeInstrs        uint64
		slowdowns           []float64
		denseDurFirst       time.Duration
		degraded            []string
	)
	heap := watchHeap()
	deadline := time.Now().Add(e.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var passDense time.Duration
		var passInstrs uint64
		for _, pi := range order {
			sp := suite[pi]
			req := fmt.Sprintf("pass%d/%s", pass, sp.name)
			root := tr.newID()
			rootStart := time.Now()
			var es *witch.ExecStats
			var nerr error
			nd := tr.timed(root, "machine.run_native", req, func() { es, nerr = sp.prog.RunNative() })
			if nerr != nil {
				return nil, fmt.Errorf("%s native: %w", sp.name, nerr)
			}
			if pass == 0 {
				nativeDur += nd
				nativeInstrs += es.Instrs
			}
			for ti, tool := range crafts {
				var prof *witch.Profile
				var rerr error
				c0 := cpuTime()
				d := tr.timed(root, "witch.run", req+"/"+string(tool), func() {
					prof, rerr = witch.Run(sp.prog, witch.Options{Tool: tool, Period: profilePeriod, Seed: e.seed})
				})
				runCPU += cpuTime() - c0
				if rerr != nil {
					return nil, fmt.Errorf("%s %s: %w", sp.name, tool, rerr)
				}
				runMS = append(runMS, ms(d))
				passDense += d
				passInstrs += prof.Instrs
				if prof.Health.Degraded {
					degraded = append(degraded, sp.name+"/"+string(tool))
				}
				if pass == 0 {
					first = append(first, runRec{pi, ti, prof, d})
					denseDurFirst += d
					slowdowns = append(slowdowns, float64(d)/float64(nd))
				}
			}
			if traced && pass == 0 {
				armedDur += tr.timed(root, "pmu.armed_run", req, func() {
					_, rerr := witch.Run(sp.prog, witch.Options{Tool: witch.DeadStores, Period: armedPeriod, Seed: e.seed})
					if rerr != nil && err == nil {
						err = rerr
					}
				})
			}
			tr.add(root, 0, "bench.program", req, rootStart, time.Now())
		}
		passRates = append(passRates, float64(passInstrs)/passDense.Seconds()/1e6)
	}
	ph.heapMB = heap.end()
	if err != nil {
		return nil, err
	}
	ph.lat = summarize(runMS)
	ph.opCPU = ms(runCPU) / float64(len(runMS))
	ph.attempted = int64(len(runMS))
	ph.layer["profiled_minstr_per_s"] = median(passRates)
	ph.layer["failed_frac"] = 0

	// Counts from the first pass: they repeat exactly for a seed.
	var samples, traps, spurious, modifies, closes, disasm, monitored, toolBytes, pairs uint64
	for _, r := range first {
		st := r.prof.Stats
		samples += st.Samples
		traps += st.Traps
		spurious += st.SpuriousTraps
		modifies += st.Modifies
		closes += st.Closes
		disasm += st.DisasmInstrs
		monitored += st.Monitored
		toolBytes += r.prof.ToolBytes
		pairs += uint64(len(r.prof.TopPairs(0)))
	}
	n := float64(len(first))
	ph.layer["machine.ns_per_instr"] = float64(nativeDur.Nanoseconds()) / float64(nativeInstrs)
	ph.layer["pmu.samples"] = float64(samples)
	ph.layer["hwdebug.traps"] = float64(traps)
	ph.layer["hwdebug.spurious_trap_frac"] = ratio(float64(spurious), float64(traps))
	ph.layer["perfevent.modifies_per_sample"] = ratio(float64(modifies), float64(samples))
	ph.layer["perfevent.reopens"] = float64(closes)
	ph.layer["perfevent.disasm_instrs_per_trap"] = ratio(float64(disasm), float64(traps))
	ph.layer["witch.slowdown_x"] = geomean(slowdowns)
	ph.layer["witch.monitored_frac"] = ratio(float64(monitored), float64(samples))
	ph.layer["cct.tool_kib"] = float64(toolBytes) / n / 1024
	ph.layer["cct.pairs_per_profile"] = float64(pairs) / n
	if traced {
		ph.layer["pmu.armed_ns_per_instr"] = float64((armedDur - nativeDur).Nanoseconds()) / float64(nativeInstrs)
		handler := denseDurFirst - time.Duration(len(crafts))*armedDur
		ph.layer["witch.handler_us_per_event"] = us(handler) / float64(samples+traps)
		ph.spans = tr.snapshot()
		return ph, nil // the accuracy check ran on the untraced run
	}

	// Check: sampled redundancy against the exhaustive spies, and no
	// profile absorbed a substrate fault.
	// The spies run one program per goroutine at a time, on every CPU.
	errs := make([]float64, len(first))
	var exErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, r := range first {
				if r.prog%runtime.GOMAXPROCS(0) != g {
					continue
				}
				ex, err := witch.RunExhaustive(suite[r.prog].prog, crafts[r.tool])
				if err != nil {
					mu.Lock()
					exErr = err
					mu.Unlock()
					return
				}
				errs[i] = math.Abs(r.prof.Redundancy-ex.Redundancy) * 100
			}
		}(g)
	}
	wg.Wait()
	if exErr != nil {
		return nil, exErr
	}
	var errSum float64
	for _, x := range errs {
		errSum += x
	}
	meanErr := errSum / n
	ph.layer["craft.redundancy_err_pp"] = meanErr
	fmt.Printf("profile: %d witch.Run calls, mean |redundancy error| vs exhaustive spies %.3f pp\n", len(runMS), meanErr)
	switch {
	case meanErr > 6:
		ph.check = fmt.Errorf("mean |redundancy error| %.2f pp exceeds 6 pp", meanErr)
	case len(degraded) > 0:
		ph.check = fmt.Errorf("Health.Degraded on %d profiles, first %s", len(degraded), degraded[0])
	}
	if ph.check != nil {
		ph.failed = ph.attempted
	}
	return ph, nil
}
