// Package agg merges witch profiles from many runs, processes, and
// machines into one queryable view — the fleet-level aggregation layer
// behind the witchd daemon. The paper separates collection from
// inspection (hpcrun measurement files consumed postmortem by hpcviewer,
// §6.5); agg extends that split from one file per run to a continuous
// stream of runs.
//
// Merging preserves the §4.2 proportional-attribution semantics: every
// pair's waste and use are plain sums over the contributing profiles, so
// merging k identical profiles scales waste and use by k while the
// redundancy fraction waste/(waste+use) — Equation 1 — stays fixed.
// Merge is commutative and associative (it is a sum), which is what lets
// the store fold expired retention buckets into a rollup without
// changing any ranking.
//
// State is grouped by (tool, program). Each group holds its scalar
// totals, its pair accumulators keyed by a hash of the context-pair
// signature, one lock, and a stamp: the value a process-wide monotonic
// counter had at the group's last mutation. A profile touches exactly
// one group, so Merge takes one lock per profile, concurrent ingest of
// different programs never contends, and a snapshot of one program walks
// only that program's pairs. Stamps are unique across every group ever
// mutated, so an ordered list of source stamps names the exact inputs of
// a fold: Refold reuses a previous fold's group whenever that list is
// unchanged, and refolds from scratch, in the same order, the groups
// whose list moved.
package agg

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/witch"
)

// groupKey identifies one group: the tool that found its pairs and the
// program they were found in.
type groupKey struct {
	tool, program string
}

// pairAcc accumulates one pair stream of a group, identified by the
// full context-pair signature (leaf locations plus the synthetic chain,
// i.e. the complete ⟨C_watch, C_trap⟩ calling contexts of §4.2 — two
// pairs with the same leaves but different chains stay distinct,
// exactly as they do in one profile). The group's map is keyed by the
// signature's 64-bit hash alone (one word-sized comparison instead of
// three string comparisons on lookup), with genuine hash collisions
// chained through next and resolved by full signature equality.
type pairAcc struct {
	src, dst, chain  string
	hash             uint64
	waste, use       float64
	srcLine, dstLine int
	next             *pairAcc // hash-collision chain
}

// stamps is the process-wide mutation counter behind group stamps.
var stamps atomic.Uint64

// group is one (tool, program)'s state. mu guards every field but key.
// count tracks accumulators including chained collisions, which
// len(pairs) would undercount. hasMeta is false only for a group built
// from pair rows alone (a State image without the matching meta row).
type group struct {
	key     groupKey
	mu      sync.Mutex
	stamp   uint64
	hasMeta bool
	meta    meta
	pairs   map[uint64]*pairAcc
	count   int
}

func newGroup(k groupKey, hint int) *group {
	return &group{key: k, pairs: make(map[uint64]*pairAcc, hint)}
}

// touch stamps a mutation. Caller holds g.mu, so a stamp read under the
// lock always labels exactly the content beside it.
func (g *group) touch() { g.stamp = stamps.Add(1) }

// add folds one pair row into its accumulator, creating it on first
// sighting. Caller holds g.mu.
func (g *group) add(h uint64, src, dst, chain string, waste, use float64, srcLine, dstLine int) {
	acc := g.pairs[h]
	for ; acc != nil; acc = acc.next {
		if acc.src == src && acc.dst == dst && acc.chain == chain {
			break
		}
	}
	if acc == nil {
		acc = &pairAcc{src: src, dst: dst, chain: chain, hash: h, srcLine: srcLine, dstLine: dstLine}
		acc.next = g.pairs[h]
		g.pairs[h] = acc
		g.count++
	}
	acc.waste += waste
	acc.use += use
}

// addMeta folds one scalar bundle into the group's totals; the first
// bundle is copied. Caller holds g.mu.
func (g *group) addMeta(m meta) {
	if !g.hasMeta {
		g.meta, g.hasMeta = m, true
		return
	}
	g.meta.add(&m)
}

// mergeGroup folds another group's content into g. The source
// accumulator carries its hash, so a cross-aggregator fold never
// re-hashes a string. Caller holds both locks.
func (g *group) mergeGroup(o *group) {
	if o.hasMeta {
		g.addMeta(o.meta)
	}
	for _, head := range o.pairs {
		for acc := head; acc != nil; acc = acc.next {
			g.add(acc.hash, acc.src, acc.dst, acc.chain, acc.waste, acc.use, acc.srcLine, acc.dstLine)
		}
	}
	g.touch()
}

// FNV-1a 64 constants; the hash is computed inline (hash/fnv's Writer
// interface would allocate per string on this, the hottest loop the
// daemon has).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashPart folds one string plus a 0-byte separator into h, so
// ("ab","c") and ("a","bc") hash differently.
func hashPart(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator: h ^= 0 is a no-op, the multiply is not
	return h
}

// hashPair is the pair-map key of a context-pair signature.
func hashPair(src, dst, chain string) uint64 {
	return hashPart(hashPart(hashPart(fnvOffset64, src), dst), chain)
}

// meta is the per-(tool, program) scalar accumulator.
type meta struct {
	profiles   uint64
	waste, use float64
	wallNanos  int64
	toolBytes  uint64
	instrs     uint64
	loads      uint64
	stores     uint64
	exhaustive bool
	stats      witch.Stats
	health     witch.Health
}

// add sums o into m.
func (m *meta) add(o *meta) {
	m.profiles += o.profiles
	m.waste += o.waste
	m.use += o.use
	m.wallNanos += o.wallNanos
	m.toolBytes += o.toolBytes
	m.instrs += o.instrs
	m.loads += o.loads
	m.stores += o.stores
	m.exhaustive = m.exhaustive || o.exhaustive
	m.stats = mergeStats(m.stats, o.stats)
	m.health = MergeHealth(m.health, o.health)
}

// Aggregator merges profiles. The zero value is not usable; call New.
// mu guards the group map only. Group locks nest inside its read side
// (the walks of MergeFrom and each), never the other way round.
type Aggregator struct {
	mu     sync.RWMutex
	groups map[groupKey]*group
}

// New returns an empty aggregator.
func New() *Aggregator { return &Aggregator{groups: make(map[groupKey]*group)} }

// group returns the group for (tool, program), creating it with room
// for hint pairs.
func (a *Aggregator) group(tool, program string, hint int) *group {
	k := groupKey{tool, program}
	a.mu.RLock()
	g := a.groups[k]
	a.mu.RUnlock()
	if g != nil {
		return g
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if g = a.groups[k]; g == nil {
		g = newGroup(k, hint)
		a.groups[k] = g
	}
	return g
}

// matching returns the groups of tool, filtered to program unless it is
// "", sorted by program so cross-program sums run in a fixed order.
func (a *Aggregator) matching(tool, program string) []*group {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if program != "" {
		if g := a.groups[groupKey{tool, program}]; g != nil {
			return []*group{g}
		}
		return nil
	}
	var out []*group
	for k, g := range a.groups {
		if k.tool == tool {
			out = append(out, g)
		}
	}
	slices.SortFunc(out, func(x, y *group) int { return cmp.Compare(x.key.program, y.key.program) })
	return out
}

// sortedGroups returns every group sorted by (tool, program).
func (a *Aggregator) sortedGroups() []*group {
	a.mu.RLock()
	out := make([]*group, 0, len(a.groups))
	for _, g := range a.groups {
		out = append(out, g)
	}
	a.mu.RUnlock()
	slices.SortFunc(out, func(x, y *group) int {
		if c := cmp.Compare(x.key.tool, y.key.tool); c != 0 {
			return c
		}
		return cmp.Compare(x.key.program, y.key.program)
	})
	return out
}

// Merge folds one profile into the aggregate under one group lock.
// Safe for concurrent use.
func (a *Aggregator) Merge(p *witch.Profile) {
	pairs := p.TopPairs(0)
	g := a.group(p.Tool, p.Program, len(pairs))
	g.mu.Lock()
	g.addMeta(meta{
		profiles:   1,
		waste:      p.Waste,
		use:        p.Use,
		wallNanos:  p.WallTime.Nanoseconds(),
		toolBytes:  p.ToolBytes,
		instrs:     p.Instrs,
		loads:      p.Loads,
		stores:     p.Stores,
		exhaustive: p.Exhaustive,
		stats:      p.Stats,
		health:     p.Health,
	})
	for i := range pairs {
		pr := &pairs[i]
		g.add(hashPair(pr.Src, pr.Dst, pr.Chain), pr.Src, pr.Dst, pr.Chain, pr.Waste, pr.Use, pr.SrcLine, pr.DstLine)
	}
	g.touch()
	g.mu.Unlock()
}

// MergeFrom folds another aggregator into this one — the operation the
// store uses to roll expired retention buckets into the long-tail
// rollup, and the reason merge associativity across aggregator
// boundaries is a tested property. Each source group is copied under
// its own lock, so concurrent Merge calls on either side are safe, but
// a merge landing in other mid-copy may miss this pass — callers wanting
// an exact cut must quiesce other first, as the store's eviction does.
// Two aggregators must not MergeFrom each other concurrently (lock
// order).
func (a *Aggregator) MergeFrom(other *Aggregator) {
	other.mu.RLock()
	defer other.mu.RUnlock()
	for k, og := range other.groups {
		og.mu.Lock()
		g := a.group(k.tool, k.program, og.count)
		g.mu.Lock()
		g.mergeGroup(og)
		g.mu.Unlock()
		og.mu.Unlock()
	}
}

// mergeStats sums framework counters; MaxBlindSpot is a maximum, not a
// sum — the fleet-level figure is the worst blind spot any run saw.
func mergeStats(x, y witch.Stats) witch.Stats {
	x.Samples += y.Samples
	x.Monitored += y.Monitored
	x.Traps += y.Traps
	x.SpuriousTraps += y.SpuriousTraps
	if y.MaxBlindSpot > x.MaxBlindSpot {
		x.MaxBlindSpot = y.MaxBlindSpot
	}
	x.Opens += y.Opens
	x.Closes += y.Closes
	x.Modifies += y.Modifies
	x.DisasmInstrs += y.DisasmInstrs
	return x
}

// MergeHealth combines degradation records: counters sum, flags OR,
// ConfiguredRegs is the largest configuration seen and EffectiveRegs the
// smallest any contributing run ended with (zero means "no sampling
// substrate", e.g. an exhaustive run, and never wins the minimum). The
// /healthz endpoint serves this so degraded clients are visible
// fleet-wide.
func MergeHealth(x, y witch.Health) witch.Health {
	x.SignalsLost += y.SignalsLost
	x.RingLost += y.RingLost
	x.ArmFailures += y.ArmFailures
	x.ArmRetries += y.ArmRetries
	x.ModifyFallbacks += y.ModifyFallbacks
	x.LBROutages += y.LBROutages
	if y.ConfiguredRegs > x.ConfiguredRegs {
		x.ConfiguredRegs = y.ConfiguredRegs
	}
	if y.EffectiveRegs > 0 && (x.EffectiveRegs == 0 || y.EffectiveRegs < x.EffectiveRegs) {
		x.EffectiveRegs = y.EffectiveRegs
	}
	x.RegistersShrunk = x.RegistersShrunk || y.RegistersShrunk
	x.SampleLoss = x.SampleLoss || y.SampleLoss
	x.Degraded = x.Degraded || y.Degraded
	return x
}

// Snapshot re-materializes the merged profile for one tool, optionally
// filtered to one program (program == "" merges across programs, in
// program order). Pairs are ranked exactly as a single profile ranks
// them — waste descending, chain ascending on ties — so a single-source
// snapshot round-trips bit-compatibly through WriteJSON/witchdiff.
// Returns nil if nothing matching has been merged.
func (a *Aggregator) Snapshot(tool, program string) *witch.Profile {
	return a.SnapshotTop(tool, program, 0)
}

// SnapshotTop is Snapshot bounded to the n highest-ranked pairs — the
// /v1/top serving path, where n is the dashboard's page size. Identical
// to Snapshot(tool, program) with the pair list truncated to n; meta
// scalars still cover every matching pair. n <= 0 means no bound. Each
// group's scalars and pairs are read under one hold of its lock.
func (a *Aggregator) SnapshotTop(tool, program string, n int) *witch.Profile {
	var mk meta
	var progs []string
	r := newRanker(n)
	for _, g := range a.matching(tool, program) {
		g.mu.Lock()
		if g.hasMeta {
			mk.add(&g.meta)
			progs = append(progs, g.key.program)
		}
		r.grow(g.count)
		for _, head := range g.pairs {
			for acc := head; acc != nil; acc = acc.next {
				r.offer(witch.Pair{
					Src: acc.src, Dst: acc.dst, Chain: acc.chain,
					Waste: acc.waste, Use: acc.use,
					SrcLine: acc.srcLine, DstLine: acc.dstLine,
				})
			}
		}
		g.mu.Unlock()
	}
	if mk.profiles == 0 {
		return nil
	}
	progName := program
	if program == "" {
		if len(progs) == 1 {
			progName = progs[0]
		} else {
			progName = fmt.Sprintf("merged(%d programs)", len(progs))
		}
	}
	red := 0.0
	if mk.waste+mk.use > 0 {
		red = mk.waste / (mk.waste + mk.use)
	}
	return witch.NewProfile(witch.Profile{
		Program:    progName,
		Tool:       tool,
		Exhaustive: mk.exhaustive,
		Redundancy: red,
		Waste:      mk.waste,
		Use:        mk.use,
		WallTime:   time.Duration(mk.wallNanos),
		ToolBytes:  mk.toolBytes,
		Instrs:     mk.instrs,
		Loads:      mk.loads,
		Stores:     mk.stores,
		Stats:      mk.stats,
		Health:     mk.health,
	}, r.result())
}

// pairCmp is the canonical pair ranking: waste descending, then chain,
// source, destination ascending — the order a single profile ranks its
// own pairs, shared by the full sort and the top-n selection. Within one
// program the signature is unique, so that is a total order; across
// programs two pairs may share a signature, and use (descending) and
// the source and destination lines (ascending) break the tie.
func pairCmp(a, b *witch.Pair) int {
	if c := cmp.Compare(b.Waste, a.Waste); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Chain, b.Chain); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Use, a.Use); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcLine, b.SrcLine); c != 0 {
		return c
	}
	return cmp.Compare(a.DstLine, b.DstLine)
}

func pairLess(a, b *witch.Pair) bool { return pairCmp(a, b) < 0 }

// ranker collects pairs into the canonical ranking. Unbounded (n <= 0)
// it appends and sorts once. Bounded, a min-heap (worst-of-the-best at
// the root) admits each candidate in O(log n), so selecting 20 of 100k
// pairs does ~100k comparisons instead of a 100k-element sort; the
// result is the exact prefix a full sort would produce.
type ranker struct {
	n     int
	pairs []witch.Pair
}

func newRanker(n int) *ranker {
	r := &ranker{n: n}
	if n > 0 {
		r.pairs = make([]witch.Pair, 0, n)
	}
	return r
}

// grow reserves room for k more pairs in an unbounded ranking.
func (r *ranker) grow(k int) {
	if r.n <= 0 {
		r.pairs = slices.Grow(r.pairs, k)
	}
}

// worse orders the heap so a candidate better than the root evicts it.
func (r *ranker) worse(i, j int) bool { return pairLess(&r.pairs[j], &r.pairs[i]) }

func (r *ranker) offer(p witch.Pair) {
	switch {
	case r.n <= 0:
		r.pairs = append(r.pairs, p)
	case len(r.pairs) < r.n:
		r.pairs = append(r.pairs, p)
		for i := len(r.pairs) - 1; i > 0; {
			parent := (i - 1) / 2
			if !r.worse(i, parent) {
				break
			}
			r.pairs[i], r.pairs[parent] = r.pairs[parent], r.pairs[i]
			i = parent
		}
	case pairLess(&p, &r.pairs[0]):
		r.pairs[0] = p
		for i := 0; ; {
			l, rt, w := 2*i+1, 2*i+2, i
			if l < len(r.pairs) && r.worse(l, w) {
				w = l
			}
			if rt < len(r.pairs) && r.worse(rt, w) {
				w = rt
			}
			if w == i {
				break
			}
			r.pairs[i], r.pairs[w] = r.pairs[w], r.pairs[i]
			i = w
		}
	}
}

// result returns the ranked pairs. An unbounded ranking sorts indices
// and then permutes the pairs in place: moving 96-byte pairs through
// every comparison and swap cost more than the comparisons did.
func (r *ranker) result() []witch.Pair {
	h := r.pairs
	if r.n > 0 {
		slices.SortFunc(h, func(x, y witch.Pair) int { return pairCmp(&x, &y) })
		return h
	}
	idx := make([]int32, len(h))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int { return pairCmp(&h[i], &h[j]) })
	// Apply the permutation h'[k] = h[idx[k]] cycle by cycle, marking
	// each placed slot with -1.
	for k := range idx {
		if idx[k] < 0 {
			continue
		}
		tmp := h[k]
		for j := k; ; {
			next := int(idx[j])
			idx[j] = -1
			if next == k {
				h[j] = tmp
				break
			}
			h[j] = h[next]
			j = next
		}
	}
	return h
}

// Tools lists the tools with merged data, sorted.
func (a *Aggregator) Tools() []string {
	out := []string{}
	for _, g := range a.sortedGroups() {
		if g.seen() && (len(out) == 0 || out[len(out)-1] != g.key.tool) {
			out = append(out, g.key.tool)
		}
	}
	return out
}

// Programs lists the programs with merged data for a tool, sorted.
func (a *Aggregator) Programs(tool string) []string {
	out := []string{}
	for _, g := range a.matching(tool, "") {
		if g.seen() {
			out = append(out, g.key.program)
		}
	}
	return out
}

// seen reports, under the group's lock, whether any scalars were merged
// into it — what makes its tool and program listable.
func (g *group) seen() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hasMeta
}

// each calls f on every group under the group's lock.
func (a *Aggregator) each(f func(g *group)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, g := range a.groups {
		g.mu.Lock()
		f(g)
		g.mu.Unlock()
	}
}

// Profiles returns how many profiles have been merged in, across all
// tools and programs.
func (a *Aggregator) Profiles() uint64 {
	var n uint64
	a.each(func(g *group) { n += g.meta.profiles })
	return n
}

// PairCount returns the number of distinct merged pair streams held —
// the live-memory figure retention eviction is meant to bound.
func (a *Aggregator) PairCount() int {
	n := 0
	a.each(func(g *group) { n += g.count })
	return n
}

// Health returns the fleet-wide combined degradation record and the
// number of profiles it covers.
func (a *Aggregator) Health() (witch.Health, uint64) {
	var h witch.Health
	var n uint64
	a.each(func(g *group) {
		h = MergeHealth(h, g.meta.health)
		n += g.meta.profiles
	})
	return h, n
}

// Folded is a fold built by Refold: the aggregator, plus for each of its
// groups the stamps of the source groups it was summed from, in fold
// order. The aggregator is read-only: its groups may be shared with
// later folds.
type Folded struct {
	Agg  *Aggregator
	from map[groupKey][]uint64
}

// Refold builds the fold of srcs in order — the aggregator that
// MergeFrom of each source, in order, into an empty one would build. A
// group whose ordered source stamps equal those it had in prev is
// carried over from prev by pointer; every other group is refolded from
// scratch over the same sources in the same order, so each pair is
// still summed in the order a full fold sums it and the result is exact
// by construction. prev may be nil. Safe for concurrent use with Merge
// on the sources, with MergeFrom's caveat: a merge landing mid-fold may
// or may not be included, and the stamp recorded beside a refolded
// group is the one read with its content, so a late merge is picked up
// by the next Refold.
func Refold(srcs []*Aggregator, prev *Folded) *Folded {
	inputs := make(map[groupKey][]*group)
	for _, src := range srcs {
		src.mu.RLock()
		for k, g := range src.groups {
			inputs[k] = append(inputs[k], g)
		}
		src.mu.RUnlock()
	}
	out := &Folded{Agg: New(), from: make(map[groupKey][]uint64, len(inputs))}
	for k, gs := range inputs {
		from := make([]uint64, len(gs))
		hint := 0
		for i, g := range gs {
			g.mu.Lock()
			from[i] = g.stamp
			hint = max(hint, g.count)
			g.mu.Unlock()
		}
		if prev != nil && slices.Equal(prev.from[k], from) {
			out.Agg.groups[k] = prev.Agg.groups[k]
			out.from[k] = from
			continue
		}
		ng := newGroup(k, hint)
		for i, g := range gs {
			g.mu.Lock()
			ng.mergeGroup(g)
			from[i] = g.stamp
			g.mu.Unlock()
		}
		out.Agg.groups[k] = ng
		out.from[k] = from
	}
	return out
}
