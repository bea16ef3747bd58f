package agg

import (
	"cmp"
	"slices"

	"repro/witch"
)

// State is the aggregator's exported snapshot codec: a flat, encodable
// image of every accumulator, used by internal/store to persist the
// retention ring and rollup. Loading a State rebuilds an aggregator
// whose every query answer is identical to the original's — the codec
// carries the raw sums, so no merge is re-run and no float is re-added
// in a different order.
type State struct {
	Metas []MetaState
	Pairs []PairState
}

// MetaState is one (tool, program) scalar accumulator.
type MetaState struct {
	Tool, Program string
	Profiles      uint64
	Waste, Use    float64
	WallNanos     int64
	ToolBytes     uint64
	Instrs        uint64
	Loads         uint64
	Stores        uint64
	Exhaustive    bool
	Stats         witch.Stats
	Health        witch.Health
}

// PairState is one merged pair stream's accumulator.
type PairState struct {
	Tool, Program    string
	Src, Dst, Chain  string
	Waste, Use       float64
	SrcLine, DstLine int
}

// State snapshots the aggregator. Safe for concurrent use with Merge,
// though callers wanting an exact cut must quiesce writers (the store
// and witchd's snapshot barrier do). Output order is deterministic so
// identical aggregates encode identically: metas by (tool, program),
// pairs by (tool, program, src, dst, chain).
func (a *Aggregator) State() *State {
	st := &State{}
	for _, g := range a.sortedGroups() {
		g.mu.Lock()
		k, m := g.key, &g.meta
		if g.hasMeta {
			st.Metas = append(st.Metas, MetaState{
				Tool: k.tool, Program: k.program,
				Profiles: m.profiles, Waste: m.waste, Use: m.use,
				WallNanos: m.wallNanos, ToolBytes: m.toolBytes,
				Instrs: m.instrs, Loads: m.loads, Stores: m.stores,
				Exhaustive: m.exhaustive, Stats: m.stats, Health: m.health,
			})
		}
		first := len(st.Pairs)
		for _, head := range g.pairs {
			for acc := head; acc != nil; acc = acc.next {
				st.Pairs = append(st.Pairs, PairState{
					Tool: k.tool, Program: k.program,
					Src: acc.src, Dst: acc.dst, Chain: acc.chain,
					Waste: acc.waste, Use: acc.use,
					SrcLine: acc.srcLine, DstLine: acc.dstLine,
				})
			}
		}
		g.mu.Unlock()
		slices.SortFunc(st.Pairs[first:], func(x, y PairState) int {
			if c := cmp.Compare(x.Src, y.Src); c != 0 {
				return c
			}
			if c := cmp.Compare(x.Dst, y.Dst); c != 0 {
				return c
			}
			return cmp.Compare(x.Chain, y.Chain)
		})
	}
	return st
}

// MergeState folds a snapshot image into an existing aggregator —
// the cluster query plane's shard-merge entry point. A coordinator
// answers a fleet query by folding every peer's exported State into
// its own local view with the exact rules Merge/MergeFrom use:
// waste/use and counters sum, Stats sum (MaxBlindSpot is a max),
// Health flags OR. Safe for concurrent use with Merge on a. State
// emits one group's pair rows contiguously, so each run of rows with
// one (tool, program) is folded under one hold of the group's lock.
func (a *Aggregator) MergeState(st *State) {
	for i := range st.Metas {
		m := &st.Metas[i]
		g := a.group(m.Tool, m.Program, 0)
		g.mu.Lock()
		g.addMeta(meta{
			profiles: m.Profiles, waste: m.Waste, use: m.Use,
			wallNanos: m.WallNanos, toolBytes: m.ToolBytes,
			instrs: m.Instrs, loads: m.Loads, stores: m.Stores,
			exhaustive: m.Exhaustive, stats: m.Stats, health: m.Health,
		})
		g.touch()
		g.mu.Unlock()
	}
	for i := 0; i < len(st.Pairs); {
		tool, program := st.Pairs[i].Tool, st.Pairs[i].Program
		j := i + 1
		for j < len(st.Pairs) && st.Pairs[j].Tool == tool && st.Pairs[j].Program == program {
			j++
		}
		g := a.group(tool, program, j-i)
		g.mu.Lock()
		for _, p := range st.Pairs[i:j] {
			g.add(hashPair(p.Src, p.Dst, p.Chain), p.Src, p.Dst, p.Chain, p.Waste, p.Use, p.SrcLine, p.DstLine)
		}
		g.touch()
		g.mu.Unlock()
		i = j
	}
}

// FromState rebuilds an aggregator from a snapshot image.
func FromState(st *State) *Aggregator {
	a := New()
	a.MergeState(st)
	return a
}
