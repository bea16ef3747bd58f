// Command perfbench is the repository benchmark: four workloads that
// drive the Witch library and the witchd service through their Go
// APIs in one process, print end-to-end metrics (untraced) or
// per-layer metrics (traced), and check every workload's outputs.
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check prints correct=false and exits 1. README.md lists the metrics,
// the layer each one belongs to and which end-to-end metric it should
// move on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// env is what every workload receives: the seed, the measured length,
// and a scratch directory inside the checkout.
type env struct {
	seed    int64
	seconds time.Duration
	dir     string
	setups  int // how many times set-up runs; setup_s is their median
}

// phase is one workload run's measurements.
type phase struct {
	setupS    float64
	lat       latencySummary // the workload's primary operation, ms
	opCPU     float64        // process CPU ms per primary operation
	heapMB    float64
	attempted int64
	failed    int64
	layer     map[string]float64 // per-layer metrics and the named end-to-end ones
	spans     []span
	check     error
}

type workloadFunc func(e *env, traced bool) (*phase, error)

var workloadFuncs = map[string]workloadFunc{
	"ingest":     runIngest,
	"query":      runQuery,
	"profile":    runProfile,
	"replicated": runReplicated,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "ingest, query, profile or replicated")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloadFuncs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|query|profile|replicated --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	dir := filepath.Join(wd, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	res, err := measure(run, *workload, &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir,
	}, *trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// measure runs the workload untraced and, for a traced run, once more
// with tracing on; the traced figures are compared with the untraced
// ones for the cost of tracing.
func measure(run workloadFunc, name string, e *env, traced bool) (*result, error) {
	fmt.Printf("perfbench %s: seed %d, %v measured, GOMAXPROCS %d (NumCPU %d), modelled fsync +%v\n",
		name, e.seed, e.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), syncDelay)
	e.setups = 3
	if traced {
		e.setups = 1 // setup_s is an untraced-run metric
	}
	base, err := run(e, false)
	if err != nil {
		return nil, err
	}
	report(name, base)
	res := &result{
		Correct:   base.check == nil,
		Attempted: base.attempted, Failed: base.failed,
		Metrics: make(map[string]metric),
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{m.value(base), m.unit}
		}
		return res, nil
	}

	tp, err := run(e, true)
	if err != nil {
		return nil, err
	}
	if tp.check != nil {
		res.Correct = false
		fmt.Printf("CHECK FAILED (traced run): %v\n", tp.check)
	}
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	tp.layer["obs.overhead_frac"] = ratio(tp.opCPU, base.opCPU) - 1
	for k, v := range base.layer {
		if _, have := tp.layer[k]; namedEndToEnd[k] || !have {
			tp.layer[k] = v
		}
	}
	spanFile := filepath.Join(filepath.Dir(filepath.Dir(e.dir)), "spans", fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile, tp.spans); err != nil {
		return nil, err
	}
	printSelfTimes(name, tp.spans)
	fmt.Printf("spans written to %s\n", spanFile)
	fmt.Printf("obs.overhead_frac %.4f (traced %.4f CPU ms per operation vs untraced %.4f)\n",
		tp.layer["obs.overhead_frac"], tp.opCPU, base.opCPU)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{tp.layer[m.name], m.unit}
	}
	return res, nil
}

// report prints a run's end-to-end metrics, by name and unit, and its
// check verdict.
func report(name string, ph *phase) {
	fmt.Printf("%s: primary operation: %.4f CPU ms each; latency over %d samples: p50 %.4f ms, p99 %.4f ms\n",
		name, ph.opCPU, ph.lat.n, ph.lat.p50, ph.lat.p99)
	if ph.lat.tailQ < 0.99 {
		fmt.Printf("note: fewer than 10 samples lie beyond the p99, so it is not resolved; the highest resolved percentile, p%g, is %.4f ms\n",
			100*ph.lat.tailQ, ph.lat.tail)
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %14.4f %s\n", m.name, m.value(ph), m.unit)
	}
	names := make([]string, 0, len(ph.layer))
	for k := range ph.layer {
		if namedEndToEnd[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-22s %14.4f %s\n", k, ph.layer[k], unitOf(k))
	}
	if ph.check != nil {
		fmt.Printf("CHECK FAILED: %v\n", ph.check)
	} else {
		fmt.Println("checks passed")
	}
}

// heapWatch follows the live heap through a timed phase: every 50ms it
// reads the live heap the collector marked at its last cycle. A cache
// that fills and resets makes the heap a sawtooth, so one reading at
// the end lands anywhere on it; the median of the readings is the
// heap the run typically held.
type heapWatch struct {
	stop, done chan struct{}
	mib        []float64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				w.mib = append(w.mib, float64(s[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the watch and returns the median of its readings in MiB,
// with the live heap after a final forced collection as one more
// reading.
func (w *heapWatch) end() float64 {
	close(w.stop)
	<-w.done
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	end := float64(m.HeapAlloc) / (1 << 20)
	fmt.Printf("live heap: median of %d readings over the phase %.3f MiB, after a final GC %.3f MiB\n", len(w.mib)+1, median(append(w.mib, end)), end)
	return median(append(w.mib, end))
}

// cpuTime is the CPU time, user and system, the process has used so
// far. Time the hypervisor gave this machine's CPUs to other guests
// (steal) is not in it, where wall time is.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup runs setup n times, keeping the last result and tearing
// down the others, and returns the median CPU seconds of one set-up.
func timedSetup[T any](n int, setup func(k int) (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var cpu, wall []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			teardown(last)
		}
		t0, c0 := time.Now(), cpuTime()
		v, err := setup(k)
		if err != nil {
			return last, 0, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		last = v
	}
	fmt.Printf("set-up, median of %d: %.3f CPU s, %.3f s wall\n", n, median(cpu), median(wall))
	return last, median(cpu), nil
}
