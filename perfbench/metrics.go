package main

import (
	"time"

	"repro/internal/obs"
)

// e2eMetric is one end-to-end metric. Every workload reports every one
// of them; op_cpu_ms is about the workload's primary operation (see
// README.md): an acked batch on ingest and replicated, a query on
// query, one witch.Run on profile. They are CPU time, memory and
// success, not wall time, because a shared host's steal time swings
// wall-clock figures more than any bound could allow.
type e2eMetric struct {
	name, unit, better string
	value              func(*phase) float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", func(p *phase) float64 { return p.setupS }},
	{"op_cpu_ms", "ms", "lower", func(p *phase) float64 { return p.opCPU }},
	{"heap_live_mb", "MiB", "lower", func(p *phase) float64 { return p.heapMB }},
	{"success_frac", "ratio", "higher", func(p *phase) float64 {
		return 1 - ratio(float64(p.failed), float64(p.attempted))
	}},
}

// layerMetric is one per-layer metric of the traced run. A layer that
// does not run on a workload reports 0 there.
type layerMetric struct{ name, unit, better string }

var perLayer = []layerMetric{
	// The wall-clock end-to-end figures, reported ungated; they are
	// measured on the untraced run.
	{"ack_p50_ms", "ms", "lower"},
	{"ack_p99_ms", "ms", "lower"},
	{"max_ack_rate", "batches/s", "higher"},
	{"saturated_ack_rate", "batches/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"query_top_p50_ms", "ms", "lower"},
	{"query_top_p99_ms", "ms", "lower"},
	{"query_profile_p50_ms", "ms", "lower"},
	{"query_profile_p99_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"profiled_minstr_per_s", "Minstr/s", "higher"},
	{"failed_frac", "ratio", "lower"},

	{"machine.ns_per_instr", "ns", "lower"},
	{"pmu.samples", "count", "higher"},
	{"pmu.armed_ns_per_instr", "ns", "lower"},
	{"hwdebug.traps", "count", "higher"},
	{"hwdebug.spurious_trap_frac", "ratio", "lower"},
	{"perfevent.modifies_per_sample", "ratio", "lower"},
	{"perfevent.reopens", "count", "lower"},
	{"perfevent.disasm_instrs_per_trap", "count", "lower"},
	{"witch.handler_us_per_event", "us", "lower"},
	{"witch.slowdown_x", "x", "lower"},
	{"witch.monitored_frac", "ratio", "higher"},
	{"cct.tool_kib", "KiB", "lower"},
	{"cct.pairs_per_profile", "count", "higher"},
	{"craft.redundancy_err_pp", "pp", "lower"},

	{"witch.push_wait_ms.p50", "ms", "lower"},
	{"witch.push_wait_ms.p99", "ms", "lower"},
	{"witch.encode_us.json", "us", "lower"},
	{"witch.encode_us.binary", "us", "lower"},
	{"witch.decode_us.json", "us", "lower"},
	{"witch.decode_us.binary", "us", "lower"},
	{"witch.body_bytes.json", "bytes", "lower"},
	{"witch.body_bytes.binary", "bytes", "lower"},
	{"witch.retries", "count", "lower"},
	{"witch.drops", "count", "lower"},

	{"daemon.ingest_ms.p50", "ms", "lower"},
	{"daemon.ingest_ms.p99", "ms", "lower"},
	{"daemon.query_ms.p50", "ms", "lower"},
	{"daemon.query_ms.p99", "ms", "lower"},
	{"daemon.decode_us.p50", "us", "lower"},
	{"daemon.dedup_us.p99", "us", "lower"},
	{"daemon.view_hit_frac", "ratio", "higher"},
	{"daemon.shed", "count", "lower"},
	{"daemon.rejected", "count", "lower"},

	{"wal.mean_gang", "batches", "higher"},
	{"wal.commit_ms.p50", "ms", "lower"},
	{"wal.commit_ms.p99", "ms", "lower"},
	{"wal.disk_bytes_per_body_byte", "ratio", "lower"},

	{"store.fold_ms.p50", "ms", "lower"},
	{"store.fold_ms.p99", "ms", "lower"},
	{"store.uncached_query_ms", "ms", "lower"},
	{"store.memo_hit_frac", "ratio", "higher"},
	{"store.live_pairs", "count", "lower"},
	{"store.rollup_pairs", "count", "lower"},
	{"store.evicted_buckets", "count", "lower"},

	{"agg.merge_us.p50", "us", "lower"},
	{"agg.top_ms", "ms", "lower"},

	{"cluster.forwards_per_batch", "ratio", "lower"},
	{"cluster.replicates_per_batch", "ratio", "lower"},
	{"cluster.replicate_ms.p99", "ms", "lower"},
	{"cluster.hints_appended", "count", "lower"},
	{"cluster.scatter_leg_ms.p99", "ms", "lower"},
	{"cluster.scatter_bytes_per_query", "bytes", "lower"},
	{"cluster.delta_leg_frac", "ratio", "higher"},
	{"cluster.errors", "count", "lower"},

	{"obs.overhead_frac", "ratio", "lower"},
	{"bench.lateness_ms.p99", "ms", "lower"},
}

// namedEndToEnd marks the per-layer entries that are end-to-end
// figures under the names the workloads' descriptions use; they come
// from the untraced run and are printed on every run.
var namedEndToEnd = map[string]bool{
	"ack_p50_ms": true, "ack_p99_ms": true, "max_ack_rate": true, "saturated_ack_rate": true,
	"query_p50_ms": true, "query_p99_ms": true, "queries_per_s": true,
	"query_top_p50_ms": true, "query_top_p99_ms": true,
	"query_profile_p50_ms": true, "query_profile_p99_ms": true,
	"profiled_minstr_per_s": true, "failed_frac": true,
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// stage merges one obs stage histogram across nodes and reads a
// quantile of it.
func stage(nodes []*node, st obs.Stage, q float64) time.Duration {
	var s obs.HistogramSnapshot
	for _, n := range nodes {
		s.Merge(n.ob.StageSnapshot(st))
	}
	return s.Quantile(q)
}

// spanDurations returns the durations, in ms, of the spans with a name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}
