package simnet

// Hierarchical waterfill: rack-local solving coupled via separator
// aggregates.
//
// PR 7's parallelism fans *components* over workers, which collapses on an
// oversubscribed fat tree whose rack uplinks share a core switch: the
// fabric is one connected component, so the flush solves it serially. This
// file decomposes such a component along a declared separator set (the
// rack-uplink and core resources, see SetSeparators): deleting the
// separators from the flow↔resource graph splits it into rack-local
// groups, and the solver treats each group as an almost-independent
// subproblem coupled only through the separators.
//
// Two modes share the partition machinery:
//
// Exact mode (SetHierarchical(workers, 0)) runs ONE waterfill whose passes
// are synchronized across groups — a regrouping of the arithmetic of
// solveReference (the test oracle in reference_test.go), not an
// approximation:
//
//   - Per-resource demand sums: a local (non-separator) resource is used
//     only by flows of its own group, and a group's flow list is an
//     order-preserving subsequence of the component's canonical (Name,
//     seq) flow order, so accumulating sumW group-locally performs the
//     exact same IEEE additions in the exact same order as the
//     reference's global sweep. Separator sums are accumulated by the
//     coordinator over the separator-touching flows, again in canonical
//     order. Additions to different resources never interact, so
//     splitting one global sweep into per-group sweeps plus a separator
//     sweep is bitwise identical.
//   - The bottleneck argmin combines exactly across the partition: the
//     reference's first-wins strict `d < delta` scan over idx-ordered
//     resources picks the smallest-idx resource among those with the
//     bitwise-smallest d, so taking each group's local argmin (its
//     resources are idx-ordered) and combining by (d, idx) lexicographic
//     minimum reproduces the same bottleneck and the same delta bits.
//   - The cap frontier minimum over per-group cap-sorted frontiers equals
//     the global frontier minimum (a plain float min of unchanged Cap
//     values), and IEEE subtraction keeps capDelta = minCap - fill
//     bit-identical.
//   - Everything else (step = min, fill accumulation, load += sumW·step,
//     the `Cap <= fill+1e-12` freeze tolerance, the stall and iteration-cap
//     exits) is the same code on the same values.
//
// The speedup comes from incrementality ACROSS passes: a group whose
// frozen set did not change since its last accumulation keeps its sumW
// values as-is — re-summing an identical ordered operand sequence would
// reproduce identical bits, so skipping the re-sum is sound — and the
// separator sweep reruns only when a separator-touching flow froze. The
// flat solver re-sums every unfrozen flow every pass; here each pass
// re-sums only the groups the previous pass's freezes touched, and large
// re-sum passes fan the touched groups over the worker pool. When the
// partition is degenerate (no separators in the component, fewer than two
// rack-local groups, or a tiny component) trySolve reports false and the
// caller runs the flat solver — the fallback is invisible in the output
// because exact mode is bit-identical anyway.
//
// Bounded-error mode (SetHierarchical(workers, maxRelErr) with maxRelErr >
// 0) is a genuine decomposition, per the ROADMAP's "approximate fast path
// is fine if opt-in, bounded, measured" rule: each group is solved
// INDEPENDENTLY (in parallel) against private clones of the separator
// resources, and an outer coordination loop waterfills each separator's
// capacity over the groups' measured aggregate demands, re-tightens the
// clone capacities, and re-solves until the max relative rate change
// between consecutive rounds is <= maxRelErr. The measured residual is
// reported via Stats.HierMaxRelErr (exported as simnet/hier_max_rel_err).
// If the loop hits its round cap without converging it re-runs the exact
// solve, so the reported residual never exceeds the configured bound; the
// forceOuter test knob truncates the loop without that fallback to prove
// the metric fires (see hier_test.go).
//
// Group membership is tracked by a union-find over non-separator
// resources, updated on every retain (flow start). Removals never split
// it: a stale-coarse partition is still a correct decomposition — each
// non-separator resource and each flow still lands in exactly one group —
// it just couples groups that have since disconnected. On rack-local
// workloads no flow ever bridges two racks' local resources, so the
// partition stays exactly per-rack forever.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// hsepBit flags, inside Flow.hgroup, a flow whose usage vector touches at
// least one separator resource.
const hsepBit = int32(1) << 30

const (
	// hierMinFlowsDefault is the component size below which trySolve
	// declines without even partitioning: the partition walk costs
	// O(flows + resources) per solve, which only pays against large flat
	// solves. Exact mode makes the threshold a pure performance choice.
	hierMinFlowsDefault = 192
	// hierParMinWork is the minimum number of unfrozen flows across the
	// pass's touched groups before the re-accumulation fans out over the
	// worker pool; below it the goroutine handoff costs more than the sums.
	hierParMinWork = 2048
	// hierOuterCap bounds bounded-error coordination rounds; hitting it
	// falls back to the exact solve so the error bound still holds.
	hierOuterCap = 32
)

// hierGroup is one rack-local subproblem of the current partition: the
// flows and non-separator resources of one connected group, in canonical
// order (flows by (Name, seq), resources by idx), plus the group's share
// of the solve scratch.
type hierGroup struct {
	flows  []*Flow
	res    []*Resource
	capped []*Flow // cap-ordered subsequence of the component's capped list

	// Exact-mode pass scratch, mirroring the flat solver's compacted
	// lists but scoped to the group.
	unfrozen []int32
	cands    []int32
	capHead  int
	// touched marks that a member flow froze since the last sumW
	// accumulation, so the sums must be recomputed before the next argmin.
	touched bool

	// Bounded-mode state: per-separator-slot capacity clones (nil where
	// the group's flows never touch that separator), a pool recycling the
	// clone structs across solves, the group's aggregate flow weight on
	// each separator (the coordination waterfill's per-group weight, so
	// capacity splits in proportion to flow population rather than one
	// equal share per rack), and the locals+clones resource list the
	// group-local solver runs against.
	clones    []*Resource
	clonePool []*Resource
	cloneUsed int
	sepW      []float64
	resAll    []*Resource
	hasClones bool
	passes    int
}

func (g *hierGroup) reset() {
	g.flows = g.flows[:0]
	g.res = g.res[:0]
	g.capped = g.capped[:0]
	g.unfrozen = g.unfrozen[:0]
	g.cands = g.cands[:0]
	g.capHead = 0
	g.touched = false
	g.hasClones = false
}

// hierDemand is one group's measured demand on one separator during
// bounded-mode coordination: the clone's observed load, the group's
// aggregate flow weight on the separator, and whether the clone saturated
// (demand clipped by the current allocation rather than by the group's
// own locals).
type hierDemand struct {
	d       float64
	w       float64
	slot    int32
	elastic bool
}

// hierState holds the hierarchical mode's configuration and reusable
// scratch. One per Network (parallel campaign workers own private
// Networks); the mutex serializes trySolve when a parallel flush hands
// multiple dirty components to it concurrently.
type hierState struct {
	n         *Network
	workers   int
	maxRelErr float64
	// minFlows is hierMinFlowsDefault, lowered by tests that need the
	// partition exercised on small components.
	minFlows int
	// forceOuter, when > 0, runs exactly that many bounded-mode
	// coordination rounds and reports the measured residual without the
	// exact fallback — the mutation-test knob proving hier_max_rel_err
	// fires when the loop is truncated.
	forceOuter int

	mu sync.Mutex

	// parent is the union-find over resource idx (1-based) joining
	// non-separator resources that share a flow. It only ever coarsens;
	// see the package comment for why that stays correct.
	parent []int32
	// slotOf/slotEpoch map a union-find root to its group slot for the
	// current partition; the epoch stamp makes resets O(1).
	slotOf    []int32
	slotEpoch []uint32
	epoch     uint32

	groups  []hierGroup
	ngroups int
	// sepRes is the component's separator resources in idx order;
	// sepFlows the separator-touching flows in canonical flow order,
	// compacted as they freeze.
	sepRes     []*Resource
	sepFlows   []*Flow
	sepCands   []int32
	sepTouched bool

	active       int
	touchedSlots []int32

	// Bounded-mode scratch.
	psv       []solver
	prevRates []float64
	demands   []hierDemand
	lastErr   float64
}

// SetSeparators declares separator resources: fabric aggregates (rack
// uplinks, the core switch) the hierarchical solver coordinates across
// rather than assigning to any rack-local group. The declaration is
// additive and must happen before any flow starts; it is inert unless
// SetHierarchical enables the mode.
func (n *Network) SetSeparators(rs ...*Resource) {
	if n.nActive > 0 || n.flushArmed {
		panic("simnet: SetSeparators while flows are in flight")
	}
	for _, r := range rs {
		r.sep = true
	}
}

// SetHierarchical configures hierarchical solving. workers == 0 disables
// the mode (the default). workers >= 1 enables it: components that
// partition into two or more rack-local groups along the declared
// separator set are solved hierarchically, large re-accumulation passes
// fanning over up to that many goroutines.
//
// maxRelErr == 0 selects exact mode: bit-identical to the flat solver
// (and so to solveReference) on every input, with automatic flat fallback
// on degenerate partitions. maxRelErr > 0 selects the opt-in
// bounded-error mode: groups solve independently against separator
// capacity allocations and an outer loop re-coordinates until the max
// relative rate change between rounds is <= maxRelErr; the measured
// residual is reported via Stats.HierMaxRelErr and never exceeds the
// bound (non-convergent components re-run exactly).
//
// Like SetFlushWorkers, the mode may only change while no flow is in
// flight or flush pending; it cannot be combined with the forceGlobal
// test mode.
func (n *Network) SetHierarchical(workers int, maxRelErr float64) {
	if workers < 0 {
		panic(fmt.Sprintf("simnet: negative hierarchical worker count %d", workers))
	}
	if maxRelErr < 0 || math.IsNaN(maxRelErr) {
		panic(fmt.Sprintf("simnet: invalid hierarchical error bound %v", maxRelErr))
	}
	if n.nActive > 0 || n.flushArmed {
		panic("simnet: SetHierarchical while flows are in flight")
	}
	if workers == 0 {
		n.hier = nil
		return
	}
	if n.forceGlobal {
		panic("simnet: SetHierarchical is incompatible with the forceGlobal test mode")
	}
	h := &hierState{
		n:         n,
		workers:   workers,
		maxRelErr: maxRelErr,
		minFlows:  hierMinFlowsDefault,
	}
	h.growParent(len(n.resources))
	h.psv = make([]solver, workers)
	n.hier = h
}

// Hierarchical reports the configured hierarchical worker count (0 = off).
func (n *Network) Hierarchical() int {
	if n.hier == nil {
		return 0
	}
	return n.hier.workers
}

// SetHierarchicalMinFlows overrides the component size below which the
// hierarchical path falls back to the flat solver (default 192 — sized so
// the partition bookkeeping only engages where it can pay for itself).
// Campaigns that study the mode's correctness or error bound at modest
// scale lower it so small components still exercise the partitioned path.
// Requires SetHierarchical first, and like it may only change while no
// flow is in flight.
func (n *Network) SetHierarchicalMinFlows(min int) {
	if n.hier == nil {
		panic("simnet: SetHierarchicalMinFlows before SetHierarchical")
	}
	if min < 0 {
		panic(fmt.Sprintf("simnet: negative hierarchical minFlows %d", min))
	}
	if n.nActive > 0 || n.flushArmed {
		panic("simnet: SetHierarchicalMinFlows while flows are in flight")
	}
	n.hier.minFlows = min
}

// growParent extends the union-find (and the root→slot maps) to cover
// resource idx values up to maxIdx, each new entry its own root.
func (h *hierState) growParent(maxIdx int) {
	for len(h.parent) <= maxIdx {
		h.parent = append(h.parent, int32(len(h.parent)))
		h.slotOf = append(h.slotOf, 0)
		h.slotEpoch = append(h.slotEpoch, 0)
	}
}

// find returns the union-find root of idx, halving the path as it walks.
func (h *hierState) find(idx int32) int32 {
	for h.parent[idx] != idx {
		h.parent[idx] = h.parent[h.parent[idx]]
		idx = h.parent[idx]
	}
	return idx
}

// unionFlow joins the non-separator resources of a starting flow into one
// group. Called from retain, so every in-flight flow's local resources
// share a root by the time any solve partitions them. It also compiles the
// flow's hierarchical scratch (hroot, hsep, the locals/separators split of
// huses) so the per-solve partition and the per-pass re-accumulations
// never walk f.uses again.
func (h *hierState) unionFlow(f *Flow) {
	root := int32(-1)
	f.hsep = false
	f.huses = f.huses[:0]
	for i := range f.uses {
		r := f.uses[i].res
		if r.sep {
			f.hsep = true
			continue
		}
		f.huses = append(f.huses, f.uses[i])
		if r.idx >= len(h.parent) {
			h.growParent(r.idx)
		}
		x := h.find(int32(r.idx))
		if root < 0 {
			root = x
		} else if x != root {
			h.parent[x] = root
		}
	}
	f.hnlocal = int32(len(f.huses))
	if f.hsep {
		for i := range f.uses {
			if f.uses[i].res.sep {
				f.huses = append(f.huses, f.uses[i])
			}
		}
	}
	f.hroot = root
}

// group returns slot's group, growing the slice as needed; callers must
// not hold *hierGroup pointers across calls (append may relocate).
func (h *hierState) group(slot int) *hierGroup {
	for len(h.groups) <= slot {
		h.groups = append(h.groups, hierGroup{})
	}
	return &h.groups[slot]
}

// partition splits component c along the separator set: group slots for
// the connected non-separator subgraphs (each resource's slot cached in
// Resource.uf, each flow's in Flow.hgroup), the separator list (slot in
// Resource.uf), and the separator-touching flow list. Returns false when
// the decomposition is degenerate — no separators or locals in the
// component, or fewer than two rack-local groups — in which case no solve
// state has been touched and the caller should run the flat solver.
func (h *hierState) partition(c *component) bool {
	h.sepRes = h.sepRes[:0]
	nLocal := 0
	for _, r := range c.resources {
		if r.sep {
			r.uf = int32(len(h.sepRes))
			h.sepRes = append(h.sepRes, r)
		} else {
			nLocal++
		}
	}
	if len(h.sepRes) == 0 || nLocal == 0 {
		return false
	}
	h.growParent(len(h.n.resources))
	h.epoch++
	ng := 0
	for _, r := range c.resources {
		if r.sep {
			continue
		}
		root := h.find(int32(r.idx))
		if h.slotEpoch[root] != h.epoch {
			h.slotEpoch[root] = h.epoch
			h.slotOf[root] = int32(ng)
			h.group(ng).reset()
			ng++
		}
		slot := h.slotOf[root]
		r.uf = slot
		g := &h.groups[slot]
		g.res = append(g.res, r)
	}
	if ng < 2 {
		return false
	}
	// Flows: the group of a flow's local resources (they all share a
	// union-find root, so the cached hroot handle resolves it in one
	// find); flows touching only separators collect in a dedicated extra
	// group with no local resources, so the cap frontier and final fill
	// assignment cover them.
	sepOnly := -1
	h.sepFlows = h.sepFlows[:0]
	for _, f := range c.flows {
		var slot int32
		if f.hroot >= 0 {
			slot = h.slotOf[h.find(f.hroot)]
		} else {
			if sepOnly < 0 {
				sepOnly = ng
				h.group(ng).reset()
				ng++
			}
			slot = int32(sepOnly)
		}
		f.hgroup = slot
		if f.hsep {
			f.hgroup |= hsepBit
			h.sepFlows = append(h.sepFlows, f)
		}
		h.groups[slot].flows = append(h.groups[slot].flows, f)
	}
	for _, f := range c.capped {
		h.groups[f.hgroup&^hsepBit].capped = append(h.groups[f.hgroup&^hsepBit].capped, f)
	}
	h.ngroups = ng
	return true
}

// trySolve attempts a hierarchical solve of c, returning false (with no
// state touched) when the mode should fall back to the flat solver. On
// success it leaves the same post-solve state a flat solve would: rates
// and frozen flags on the flows, loads on the resources. sv receives the
// pass count for the solve observer; par allows internal parallelism
// (false inside the parallel flush, whose workers already own the cores).
func (h *hierState) trySolve(c *component, sv *solver, st *Stats, par bool) bool {
	if len(c.flows) < h.minFlows {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.partition(c) {
		if st != nil {
			st.HierFallbacks++
		}
		return false
	}
	var passes int
	if h.maxRelErr > 0 {
		passes = h.runBounded(c, st, par)
	} else {
		passes = h.runExact(c.flows, c.resources, st, par)
	}
	sv.lastLive = passes
	sv.lastGroups = h.ngroups
	if st != nil {
		st.HierSolves++
		st.HierGroups.Observe(uint64(h.ngroups))
		for slot := 0; slot < h.ngroups; slot++ {
			st.HierGroupFlows.Observe(uint64(len(h.groups[slot].flows)))
		}
	}
	return true
}

// runExact executes the pass-synchronized hierarchical waterfill — the
// same arithmetic as the flat solver, regrouped (see the package comment
// for the bit-identity argument). Returns the number of passes run.
func (h *hierState) runExact(flows []*Flow, resources []*Resource, st *Stats, par bool) int {
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		f.fpass = fpassNever
	}
	for _, r := range resources {
		r.load = 0
	}
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		g.unfrozen = g.unfrozen[:0]
		for i := range g.flows {
			g.unfrozen = append(g.unfrozen, int32(i))
		}
		g.cands = g.cands[:0]
		for i := range g.res {
			g.cands = append(g.cands, int32(i))
		}
		g.capHead = 0
		g.touched = true
	}
	h.sepCands = h.sepCands[:0]
	for i := range h.sepRes {
		h.sepCands = append(h.sepCands, int32(i))
	}
	h.sepTouched = true
	h.active = len(flows)
	fill := 0.0
	maxIter := len(flows) + len(resources) + 1
	iter := 0
	for ; h.active > 0 && iter <= maxIter; iter++ {
		// Re-accumulate the groups the previous pass's freezes touched;
		// everything else keeps sums whose operand sequences are unchanged.
		h.touchedSlots = h.touchedSlots[:0]
		work := 0
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			if g.touched {
				h.touchedSlots = append(h.touchedSlots, int32(slot))
				work += len(g.unfrozen)
			}
		}
		if par && h.workers > 1 && len(h.touchedSlots) > 1 && work >= hierParMinWork {
			h.recomputeParallel()
		} else {
			for _, slot := range h.touchedSlots {
				h.groups[slot].recompute()
			}
		}
		if h.sepTouched {
			h.recomputeSep()
		}
		// Bottleneck argmin: per-group first-wins minima combined by
		// (d, idx) lexicographic order — exactly the reference's global
		// first-wins scan over idx-ordered resources.
		delta := math.Inf(1)
		var bneck *Resource
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			for _, ri := range g.cands {
				r := g.res[ri]
				if d := (r.capacity - r.load) / r.sumW; d < delta || (d == delta && bneck != nil && r.idx < bneck.idx) {
					delta = d
					bneck = r
				}
			}
		}
		for _, si := range h.sepCands {
			r := h.sepRes[si]
			if d := (r.capacity - r.load) / r.sumW; d < delta || (d == delta && bneck != nil && r.idx < bneck.idx) {
				delta = d
				bneck = r
			}
		}
		// Cap frontier: the global minimum unfrozen cap is the min of the
		// per-group cap-sorted frontiers.
		capDelta := math.Inf(1)
		var minCap float64
		haveCap := false
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			for g.capHead < len(g.capped) && g.capped[g.capHead].frozen {
				g.capHead++
			}
			if g.capHead < len(g.capped) {
				if c := g.capped[g.capHead].Cap; !haveCap || c < minCap {
					minCap = c
					haveCap = true
				}
			}
		}
		if haveCap {
			capDelta = minCap - fill
		}
		if math.IsInf(delta, 1) && math.IsInf(capDelta, 1) {
			break
		}
		step := math.Min(delta, capDelta)
		if step < 0 {
			step = 0
		}
		fill += step
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			for _, ri := range g.cands {
				r := g.res[ri]
				r.load += r.sumW * step
			}
		}
		for _, si := range h.sepCands {
			r := h.sepRes[si]
			r.load += r.sumW * step
		}
		before := h.active
		capFired := capDelta <= delta
		resFired := delta <= capDelta && bneck != nil
		if capFired {
			for slot := 0; slot < h.ngroups; slot++ {
				g := &h.groups[slot]
				for j := g.capHead; j < len(g.capped); j++ {
					f := g.capped[j]
					if f.Cap > fill+1e-12 {
						break
					}
					if !f.frozen {
						h.freezeExact(f, f.Cap)
					}
				}
			}
		}
		if resFired {
			for i := range bneck.users {
				if f := bneck.users[i].f; !f.frozen {
					h.freezeExact(f, fill)
				}
			}
		}
		if st != nil {
			st.Passes++
			st.FreezesPerPass.Observe(uint64(before - h.active))
		}
		if h.active == before && step == 0 {
			break
		}
	}
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		for _, fi := range g.unfrozen {
			if f := g.flows[fi]; !f.frozen {
				f.rate = fill
			}
		}
	}
	return iter
}

// freezeExact pins f at rate and marks its group (and, for a
// separator-touching flow, the separator sweep) for re-accumulation.
func (h *hierState) freezeExact(f *Flow, rate float64) {
	f.frozen = true
	f.rate = rate
	h.active--
	h.groups[f.hgroup&^hsepBit].touched = true
	if f.hgroup&hsepBit != 0 {
		h.sepTouched = true
	}
}

// recompute rebuilds the group's per-resource demand sums from its
// unfrozen flows (compacting both lists), in canonical flow order — the
// same addition sequence the flat solver's global sweep performs for
// these resources.
func (g *hierGroup) recompute() {
	for _, ri := range g.cands {
		g.res[ri].sumW = 0
	}
	k := 0
	for _, fi := range g.unfrozen {
		f := g.flows[fi]
		if f.frozen {
			continue
		}
		g.unfrozen[k] = fi
		k++
		// huses[:hnlocal] is the locals segment of the flow's compiled
		// usage vector, in original uses order — the same additions the
		// flat solver's sweep performs for these resources.
		for i := range f.huses[:f.hnlocal] {
			u := &f.huses[i]
			u.res.sumW += u.w
		}
	}
	g.unfrozen = g.unfrozen[:k]
	k = 0
	for _, ri := range g.cands {
		if g.res[ri].sumW == 0 {
			continue
		}
		g.cands[k] = ri
		k++
	}
	g.cands = g.cands[:k]
	g.touched = false
}

// recomputeParallel fans the touched groups' recomputes over the worker
// pool. Groups write only their own resources' sums and their own lists,
// so the tasks are disjoint; the result is bitwise identical to the
// serial loop.
func (h *hierState) recomputeParallel() {
	workers := h.workers
	if workers > len(h.touchedSlots) {
		workers = len(h.touchedSlots)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(h.touchedSlots) {
					return
				}
				h.groups[h.touchedSlots[i]].recompute()
			}
		}()
	}
	wg.Wait()
}

// recomputeSep rebuilds the separator demand sums from the unfrozen
// separator-touching flows in canonical flow order, compacting the flow
// list and the candidate list.
func (h *hierState) recomputeSep() {
	for _, si := range h.sepCands {
		h.sepRes[si].sumW = 0
	}
	k := 0
	for _, f := range h.sepFlows {
		if f.frozen {
			continue
		}
		h.sepFlows[k] = f
		k++
		// huses[hnlocal:] is the separator segment; its entries are copies
		// that always point at the real separators regardless of any
		// bounded-mode clone swap still recorded in f.uses.
		for i := f.hnlocal; i < int32(len(f.huses)); i++ {
			u := &f.huses[i]
			u.res.sumW += u.w
		}
	}
	h.sepFlows = h.sepFlows[:k]
	k = 0
	for _, si := range h.sepCands {
		if h.sepRes[si].sumW == 0 {
			continue
		}
		h.sepCands[k] = si
		k++
	}
	h.sepCands = h.sepCands[:k]
	h.sepTouched = false
}

// runBounded executes the decomposed outer loop: independent group-local
// solves against separator capacity clones, coordinated by waterfilling
// each separator over the groups' measured demands, until the residual
// (max relative rate change between consecutive rounds) is within the
// bound. Returns the total waterfill passes across all local solves.
func (h *hierState) runBounded(c *component, st *Stats, par bool) int {
	h.attachClones()
	// Round 0 is optimistic: every group sees the full separator
	// capacity, so the measured clone loads are unconstrained demands.
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		for si, cl := range g.clones {
			if cl != nil {
				cl.capacity = h.sepRes[si].capacity
			}
		}
	}
	passes := h.solveLocals(par, true)
	limit := h.forceOuter
	if limit <= 0 {
		limit = hierOuterCap
	}
	outer := 0
	fellBack := false
	var err float64
	for {
		h.savePrev(c)
		h.coordinate()
		passes += h.solveLocals(par, false)
		outer++
		err = h.residual(c)
		if err <= h.maxRelErr {
			break
		}
		if outer >= limit {
			fellBack = h.forceOuter <= 0
			break
		}
	}
	h.restoreUses()
	if fellBack {
		// Convergence stalled within the round cap: re-solve exactly so
		// the caller still gets rates within (indeed, at) the bound.
		if st != nil {
			st.HierExactFallbacks++
		}
		passes += h.runExact(c.flows, c.resources, st, par)
		err = 0
	} else {
		// Fold the clone loads back onto the real separators so resource
		// observers and any later flat solve see consistent loads.
		for si, s := range h.sepRes {
			load := 0.0
			for slot := 0; slot < h.ngroups; slot++ {
				if cl := h.groups[slot].clones[si]; cl != nil {
					load += cl.load
				}
			}
			s.load = load
		}
	}
	h.lastErr = err
	if st != nil {
		st.HierOuterRounds += uint64(outer)
		if err > st.HierMaxRelErr {
			st.HierMaxRelErr = err
		}
	}
	return passes
}

// attachClones gives each group a private capacity clone of every
// separator its flows touch, swaps the flows' separator usage entries to
// point at the clones (each flow belongs to exactly one group, so the
// swap is race-free under parallel local solves), and builds each group's
// locals+clones resource list in idx order.
func (h *hierState) attachClones() {
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		if cap(g.clones) < len(h.sepRes) {
			g.clones = make([]*Resource, len(h.sepRes))
			g.sepW = make([]float64, len(h.sepRes))
		}
		g.clones = g.clones[:len(h.sepRes)]
		g.sepW = g.sepW[:len(h.sepRes)]
		clear(g.clones)
		clear(g.sepW)
		g.cloneUsed = 0
		g.hasClones = false
	}
	for _, f := range h.sepFlows {
		g := &h.groups[f.hgroup&^hsepBit]
		for i := range f.uses {
			r := f.uses[i].res
			if !r.sep {
				continue
			}
			si := r.uf
			g.sepW[si] += f.uses[i].w
			cl := g.clones[si]
			if cl == nil {
				if g.cloneUsed < len(g.clonePool) {
					cl = g.clonePool[g.cloneUsed]
				} else {
					cl = &Resource{}
					g.clonePool = append(g.clonePool, cl)
				}
				g.cloneUsed++
				cl.Name = r.Name
				cl.idx = r.idx
				cl.uf = si
				cl.sep = true
				g.clones[si] = cl
				g.hasClones = true
			}
			f.uses[i].res = cl
		}
	}
	for slot := 0; slot < h.ngroups; slot++ {
		g := &h.groups[slot]
		g.resAll = g.resAll[:0]
		ci := 0
		for _, r := range g.res {
			for ci < len(g.clones) {
				cl := g.clones[ci]
				if cl == nil {
					ci++
					continue
				}
				if cl.idx >= r.idx {
					break
				}
				g.resAll = append(g.resAll, cl)
				ci++
			}
			g.resAll = append(g.resAll, r)
		}
		for ; ci < len(g.clones); ci++ {
			if cl := g.clones[ci]; cl != nil {
				g.resAll = append(g.resAll, cl)
			}
		}
	}
}

// restoreUses swaps the separator usage entries back from the clones to
// the real separator resources.
func (h *hierState) restoreUses() {
	for _, f := range h.sepFlows {
		for i := range f.uses {
			if r := f.uses[i].res; r.sep {
				f.uses[i].res = h.sepRes[r.uf]
			}
		}
	}
}

// solveLocals runs the group-local waterfills — all groups on the first
// round, only separator-coupled groups afterwards (a purely local group's
// inputs never change across rounds, so its round-0 rates stand). The
// solves are independent: disjoint flows, disjoint resources (locals plus
// private clones), per-worker solver scratch.
func (h *hierState) solveLocals(par bool, first bool) int {
	workers := 1
	if par {
		workers = h.workers
		if workers > h.ngroups {
			workers = h.ngroups
		}
	}
	run := func(sv *solver, slot int) {
		g := &h.groups[slot]
		if !first && !g.hasClones {
			g.passes = 0
			return
		}
		sv.indexed = false
		sv.stats = nil
		sv.solve(g.flows, g.resAll, g.capped, nil)
		g.passes = sv.lastLive
	}
	if workers <= 1 {
		sv := &h.psv[0]
		for slot := 0; slot < h.ngroups; slot++ {
			run(sv, slot)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				sv := &h.psv[w]
				for {
					slot := int(next.Add(1)) - 1
					if slot >= h.ngroups {
						return
					}
					run(sv, slot)
				}
			}(w)
		}
		wg.Wait()
	}
	passes := 0
	for slot := 0; slot < h.ngroups; slot++ {
		passes += h.groups[slot].passes
	}
	return passes
}

// savePrev snapshots the component's rates in canonical flow order for
// the next residual measurement.
func (h *hierState) savePrev(c *component) {
	if cap(h.prevRates) < len(c.flows) {
		h.prevRates = make([]float64, len(c.flows))
	}
	h.prevRates = h.prevRates[:len(c.flows)]
	for i, f := range c.flows {
		h.prevRates[i] = f.rate
	}
}

// residual returns the max relative rate change versus the last savePrev:
// |new - old| / max(new, old), 0 when both are 0.
func (h *hierState) residual(c *component) float64 {
	maxErr := 0.0
	for i, f := range c.flows {
		old := h.prevRates[i]
		den := f.rate
		if old > den {
			den = old
		}
		if den <= 0 {
			continue
		}
		if e := math.Abs(f.rate-old) / den; e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// coordinate waterfills each separator's capacity over the groups'
// measured aggregate demands, weighted by each group's aggregate flow
// weight on the separator, and writes the allocations into the clone
// capacities. A group whose clone saturated is elastic — its demand was
// clipped by its current allocation, so it shares the waterfill level in
// proportion to its weight (which approximates flow-level max-min: a rack
// with nine coupled flows gets nine shares, not one); an unsaturated
// group's demand is genuine (its own locals bound it) and is granted
// outright. Leftover capacity spreads weight-proportionally over all
// takers so demand suppressed by an earlier round's tight allocation can
// re-emerge.
func (h *hierState) coordinate() {
	for si, s := range h.sepRes {
		h.demands = h.demands[:0]
		wTot := 0.0
		for slot := 0; slot < h.ngroups; slot++ {
			g := &h.groups[slot]
			cl := g.clones[si]
			if cl == nil {
				continue
			}
			h.demands = append(h.demands, hierDemand{
				d:       cl.load,
				w:       g.sepW[si],
				slot:    int32(slot),
				elastic: cl.load >= cl.capacity*(1-1e-9),
			})
			wTot += g.sepW[si]
		}
		if len(h.demands) == 0 {
			continue
		}
		// Inelastic demands ascending by per-weight demand d/w (compared
		// cross-multiplied), elastic (effectively infinite demand) after
		// them; slot breaks ties deterministically.
		slices.SortFunc(h.demands, func(a, b hierDemand) int {
			if a.elastic != b.elastic {
				if a.elastic {
					return 1
				}
				return -1
			}
			switch {
			case a.d*b.w < b.d*a.w:
				return -1
			case a.d*b.w > b.d*a.w:
				return 1
			case a.slot < b.slot:
				return -1
			case a.slot > b.slot:
				return 1
			}
			return 0
		})
		// Grant ascending inelastic demands outright while each fits under
		// the running weighted fair level; everyone from the first misfit
		// (or the first elastic group) on shares the remaining capacity in
		// proportion to weight.
		rem := s.capacity
		wRem := wTot
		cut := len(h.demands)
		for i := range h.demands {
			dm := &h.demands[i]
			if dm.elastic || dm.d*wRem > rem*dm.w {
				cut = i
				break
			}
			rem -= dm.d
			wRem -= dm.w
		}
		var level, bonus float64
		if cut < len(h.demands) {
			level = rem / wRem
		} else if rem > 0 {
			// Everything fit with room to spare and nobody is elastic:
			// spread the slack so suppressed demand can grow next round.
			bonus = rem / wTot
		}
		for i := range h.demands {
			dm := &h.demands[i]
			cl := h.groups[dm.slot].clones[si]
			if i < cut {
				cl.capacity = dm.d + bonus*dm.w
			} else {
				cl.capacity = level * dm.w
			}
		}
	}
}
