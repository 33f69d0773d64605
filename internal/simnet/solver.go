package simnet

// Incremental waterfill.
//
// The reference solver (solveReference, kept in reference_test.go as the
// differential tests' oracle) rescans every flow and every resource of the
// component on every pass: O(passes × (flows·uses + res)).
// This file implements the same progressive-filling algorithm with work
// proportional to what can still change:
//
//   - unfrozen: a compacted, order-preserving list of the flows still
//     growing. Frozen flows contribute nothing to any per-pass sum, so
//     skipping them outright performs the exact same floating-point
//     additions in the exact same order as the reference's
//     "if f.frozen { continue }" scan — the per-resource sumW values are
//     bit-identical, not merely close.
//   - cands: the candidate bottleneck resources. A resource whose sumW is
//     zero has no unfrozen user; flows only ever freeze during a solve, so
//     it can never become a bottleneck again and is dropped from the scan.
//     The reference skipped it with a test; dropping it removes the test
//     without changing the comparison sequence of the surviving
//     candidates, so the strict `d < delta` first-wins argmin picks the
//     same bottleneck with the same delta.
//   - capped: the unfrozen capped flows in ascending Cap order. The
//     reference computed capDelta = min over unfrozen capped flows of
//     (Cap - fill); IEEE subtraction is monotonic, so that minimum is
//     attained at the smallest Cap and equals (minCap - fill) bit for
//     bit. The sorted list yields it in O(1), and the freeze sweep
//     "Cap <= fill+1e-12" is a prefix walk instead of a full scan.
//   - resource freeze via the per-resource user index (Resource.users)
//     instead of an O(flows) usesRes scan. Freezing order within a pass
//     has no floating-point effect — freezes only flip flags and assign
//     already-computed rates — so walking users (flow-ordered) matches
//     the reference sweep exactly.
//
// On top of the pass loop, a solve may record its freeze trajectory
// (which flow froze in which pass, at what rate, with per-pass fill,
// step, bottleneck and per-resource load snapshots). The common
// completion event — one flow leaves, nothing else changes — can then
// warm-start: the prefix of passes provably unaffected by the departure
// is replayed from the record instead of recomputed, and the live loop
// resumes where the trajectories genuinely diverge. See warmSolve for
// the proof obligations.

import (
	"math"
	"slices"
)

// fpassNever marks a flow that did not freeze during the last recorded
// solve (never happens on a cleanly terminated solve, where every flow
// freezes, but the sentinel keeps partially recorded state harmless).
const fpassNever = int32(1) << 30

// recordMinFlows is the component size below which rebalances skip
// trajectory recording: the warm start exists to amortize expensive
// solves, and for small components the per-pass load snapshots cost more
// than simply re-solving cold on the next removal. Campaign components
// (one application's in-flight ops) sit well below this; the large
// single-component shapes the warm start targets sit well above.
const recordMinFlows = 48

// trajPass is one recorded waterfill pass.
type trajPass struct {
	step      float64 // fill increment applied this pass
	fill      float64 // fill level after the pass
	minCap    float64 // smallest unfrozen cap entering the pass (0 if none)
	minCapDup bool    // a second unfrozen flow shares minCap
	capFired  bool    // capDelta <= delta: cap freezes ran
	resFired  bool    // delta <= capDelta: bottleneck freezes ran
	// bottleneck is the pass's argmin resource (nil if none had demand).
	bottleneck *Resource
	// frozenEnd is the length of trajectory.frozen after this pass's
	// freezes: frozen[:frozenEnd] is everything frozen in passes <= this.
	frozenEnd int32
}

// frozenRec is one freeze event: which flow, at what rate.
type frozenRec struct {
	f    *Flow
	rate float64
}

// trajectory records a solve so the next single-flow-removal rebalance of
// the same component can replay its unaffected prefix. It is valid only
// if the solve terminated cleanly with every flow frozen and nothing
// about the component (membership, capacities) has changed since, except
// the one removal the warm start accounts for; every other mutation path
// (merge, rebuild, capacity change, warm start itself) invalidates it.
type trajectory struct {
	valid  bool
	nFlows int
	nRes   int
	passes []trajPass
	frozen []frozenRec
	// loads holds len(passes) rows of nRes values: resource loads after
	// each pass, in component resource order. Row p is the handoff state
	// for a warm start that replays passes [0, p].
	loads []float64
}

// solver holds the scratch state of the incremental waterfill. Each
// Network owns one (workers in a parallel campaign have private
// Networks, so scratch must not be package-level); FairShare and tests
// use a throwaway instance via the package-level solve.
type solver struct {
	// unfrozen is the compacted still-growing flow list as indices into
	// the solve's input flow slice, always order-preserving. Indices
	// rather than pointers keep the per-pass compaction writes free of GC
	// write barriers — on small components the barrier traffic of pointer
	// scratch costs more than the solve itself.
	unfrozen []int32
	// capped is the capped flows in ascending (Cap, Name, seq) order;
	// capped[capHead:] starts at the cap frontier. For component solves it
	// aliases the component's incrementally maintained list (never
	// written); frozen entries are not compacted out — the head cursor
	// advances past them, and the freeze prefix walk skips them — so
	// maintaining the frontier costs O(freezes) total rather than
	// O(capped) per pass.
	capped  []*Flow
	capHead int
	// cappedBuf backs capped for ad hoc (FairShare) inputs that arrive
	// without a pre-sorted list.
	cappedBuf []*Flow
	// cands is the compacted candidate bottleneck list as indices into
	// the solve's input resource slice, always order-preserving.
	cands []int32
	// indexed is true when Resource.users is maintained for the input
	// (Network solves); false for ad hoc FairShare flow sets, which fall
	// back to the usesRes scan.
	indexed bool

	fill   float64
	active int

	// stats, when non-nil, receives per-pass activity counts (shared
	// with the owning Network; see Network.SetStats). It never feeds back
	// into the solve's arithmetic.
	stats *Stats
	// lastLive and lastReplayed record the previous solve's cost — live
	// passes run and recorded passes replayed by a warm start — for the
	// Network's solve observer; lastGroups records the rack-local group
	// count when the previous solve took the hierarchical path (0 for flat
	// and warm-started solves).
	lastLive     int
	lastReplayed int
	lastGroups   int
}

// capOrder sorts capped flows by cap, tie-broken by the canonical flow
// order. Ties never influence arithmetic (equal caps produce bitwise
// equal capDeltas and freeze together); the tie-break just keeps the
// layout deterministic.
func capOrder(a, b *Flow) int {
	switch {
	case a.Cap < b.Cap:
		return -1
	case a.Cap > b.Cap:
		return 1
	}
	if a.Name != b.Name {
		if a.Name < b.Name {
			return -1
		}
		return 1
	}
	switch {
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// solve assigns weighted max-min fair rates to the flows in place,
// performing bit-for-bit the same floating-point operations as
// solveReference on the same input. resources must contain every
// resource the flows touch, in registration order. capped, when non-nil,
// must be exactly the flows with Cap > 0 in capOrder (components maintain
// it incrementally; passing it skips a per-solve sort); nil means build
// and sort it here. If rec is non-nil the solve records its trajectory
// there (marking it valid only on clean termination with every flow
// frozen).
func (s *solver) solve(flows []*Flow, resources []*Resource, capped []*Flow, rec *trajectory) {
	if rec != nil {
		rec.valid = false
		rec.passes = rec.passes[:0]
		rec.frozen = rec.frozen[:0]
		rec.loads = rec.loads[:0]
	}
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		f.fpass = fpassNever
	}
	for _, r := range resources {
		r.load = 0
	}
	s.fill = 0
	s.active = len(flows)
	s.unfrozen = s.unfrozen[:0]
	for i := range flows {
		s.unfrozen = append(s.unfrozen, int32(i))
	}
	if capped != nil {
		s.capped = capped
	} else {
		s.cappedBuf = s.cappedBuf[:0]
		for _, f := range flows {
			if f.Cap > 0 {
				s.cappedBuf = append(s.cappedBuf, f)
			}
		}
		slices.SortFunc(s.cappedBuf, capOrder)
		s.capped = s.cappedBuf
	}
	s.capHead = 0
	s.cands = s.cands[:0]
	for i := range resources {
		s.cands = append(s.cands, int32(i))
	}
	s.run(flows, resources, 0, rec)
}

// run executes waterfill passes starting at pass number iter, against
// already-initialized solver state (fill, active, unfrozen, capped,
// cands, per-resource loads), then assigns the final fill to whatever
// stayed unfrozen. Cold solves enter with iter 0; warm starts enter at
// the first pass after the replayed prefix.
func (s *solver) run(flows []*Flow, resources []*Resource, iter int, rec *trajectory) {
	startIter := iter
	maxIter := len(flows) + len(resources) + 1
	for ; s.active > 0 && iter <= maxIter; iter++ {
		// Per-resource demand of the unfrozen flows, accumulated in flow
		// order — the same addition sequence the reference performs.
		// Flows frozen by the previous pass are compacted out during the
		// same walk (skipping them preserves the addition order), so each
		// pass makes exactly one sweep over the still-growing flows.
		for _, ri := range s.cands {
			resources[ri].sumW = 0
		}
		k := 0
		for _, fi := range s.unfrozen {
			f := flows[fi]
			if f.frozen {
				continue
			}
			s.unfrozen[k] = fi
			k++
			for i := range f.uses {
				f.uses[i].res.sumW += f.uses[i].w
			}
		}
		s.unfrozen = s.unfrozen[:k]
		// Bottleneck search over the surviving candidates; resources with
		// no unfrozen user are dropped for good (flows never unfreeze).
		delta := math.Inf(1)
		var bottleneck *Resource
		k = 0
		for _, ri := range s.cands {
			r := resources[ri]
			if r.sumW == 0 {
				continue
			}
			s.cands[k] = ri
			k++
			if d := (r.capacity - r.load) / r.sumW; d < delta {
				delta = d
				bottleneck = r
			}
		}
		s.cands = s.cands[:k]
		// Cap frontier: advance the head cursor past frozen entries; the
		// head is then the minimum unfrozen cap. IEEE subtraction is
		// monotonic, so minCap - fill equals the reference's minimum over
		// all unfrozen capped flows bit for bit.
		for s.capHead < len(s.capped) && s.capped[s.capHead].frozen {
			s.capHead++
		}
		capDelta := math.Inf(1)
		var minCap float64
		minCapDup := false
		if s.capHead < len(s.capped) {
			minCap = s.capped[s.capHead].Cap
			capDelta = minCap - s.fill
			// A duplicate frontier holder is any other unfrozen flow at the
			// same cap; equal-cap flows freeze in the same pass, so this
			// scan rarely moves more than one entry.
			for j := s.capHead + 1; j < len(s.capped) && s.capped[j].Cap == minCap; j++ {
				if !s.capped[j].frozen {
					minCapDup = true
					break
				}
			}
		}
		if math.IsInf(delta, 1) && math.IsInf(capDelta, 1) {
			// No binding constraint; mirror the reference's guard.
			break
		}
		step := math.Min(delta, capDelta)
		if step < 0 {
			step = 0
		}
		s.fill += step
		for _, ri := range s.cands {
			r := resources[ri]
			r.load += r.sumW * step
		}
		before := s.active
		capFired := capDelta <= delta
		resFired := delta <= capDelta && bottleneck != nil
		if capFired {
			// The capped list is Cap-ascending, so the flows at or below
			// the tolerance form a prefix (some already frozen by earlier
			// resource passes and skipped here).
			for j := s.capHead; j < len(s.capped); j++ {
				f := s.capped[j]
				if f.Cap > s.fill+1e-12 {
					break
				}
				if !f.frozen {
					s.freeze(f, f.Cap, iter, rec)
				}
			}
		}
		if resFired {
			if s.indexed {
				for i := range bottleneck.users {
					if f := bottleneck.users[i].f; !f.frozen {
						s.freeze(f, s.fill, iter, rec)
					}
				}
			} else {
				for _, fi := range s.unfrozen {
					if f := flows[fi]; !f.frozen && f.usesRes(bottleneck) {
						s.freeze(f, s.fill, iter, rec)
					}
				}
			}
		}
		if rec != nil {
			rec.passes = append(rec.passes, trajPass{
				step:       step,
				fill:       s.fill,
				minCap:     minCap,
				minCapDup:  minCapDup,
				capFired:   capFired,
				resFired:   resFired,
				bottleneck: bottleneck,
				frozenEnd:  int32(len(rec.frozen)),
			})
			for _, r := range resources {
				rec.loads = append(rec.loads, r.load)
			}
		}
		if s.stats != nil {
			s.stats.Passes++
			s.stats.FreezesPerPass.Observe(uint64(before - s.active))
		}
		if s.active == before && step == 0 {
			// Nothing froze and the fill did not move: every further pass
			// would replay this state. Same early exit as the reference.
			break
		}
	}
	s.lastLive = iter - startIter
	// Flows frozen by the final pass are compacted lazily, so skip them.
	for _, fi := range s.unfrozen {
		if f := flows[fi]; !f.frozen {
			f.rate = s.fill
		}
	}
	if rec != nil {
		// A trajectory is replayable only if the solve ran to a clean
		// fixpoint with every flow frozen; iteration-cap and stall exits
		// leave unfrozen flows whose recorded state a warm start could
		// not trust.
		rec.valid = s.active == 0
		rec.nFlows = len(flows)
		rec.nRes = len(resources)
	}
}

// freeze pins f at rate, recording the freeze when rec is non-nil.
func (s *solver) freeze(f *Flow, rate float64, pass int, rec *trajectory) {
	f.frozen = true
	f.rate = rate
	s.active--
	if rec != nil {
		f.fpass = int32(pass)
		rec.frozen = append(rec.frozen, frozenRec{f: f, rate: rate})
	}
}

// departure is what the warm start reads of a flow that has just left a
// component: its compiled usage vector, its cap and the pass it froze in,
// copied out of the Flow when the departure is recorded. The copy is what
// makes a Flow its caller's again once OnComplete/OnAbort has run: under
// batching the warm start runs later, at the instant's flush, and by then
// the caller may have re-started the same struct on another route (beegfs
// recycles attempts, with their embedded flows, through a pool shared by
// every network). f is only an identity, matched against the trajectory's
// frozen entries; it is never dereferenced. The uses backing array is
// reused, so recording a departure does not allocate in steady state.
type departure struct {
	f     *Flow
	uses  []use
	cap   float64
	fpass int32
}

// record notes f's departure from a component. The warm start runs only
// on a component whose last solve left a valid trajectory (replayable),
// and nothing but the next solve can make one valid, so only then is f's
// state copied; otherwise f serves the stats as a removal marker alone and
// components too small to record a trajectory never grow a uses copy.
func (d *departure) record(f *Flow, replayable bool) {
	d.clear()
	d.f = f
	if replayable {
		d.uses = append(d.uses, f.uses...)
		d.cap = f.Cap
		d.fpass = f.fpass
	}
}

// clear drops the hint, zeroing the copied entries so a pooled component
// does not pin resources.
func (d *departure) clear() {
	d.f = nil
	clear(d.uses)
	d.uses = d.uses[:0]
}

// usesRes reports whether the departed flow's usage vector touches r.
func (d *departure) usesRes(r *Resource) bool {
	for i := range d.uses {
		if d.uses[i].res == r {
			return true
		}
	}
	return false
}

// warmSolve re-solves a component from which exactly one flow (removed)
// has departed since traj was recorded, replaying the prefix of recorded
// passes the departure provably cannot have changed and running the live
// loop only from the first genuinely divergent pass. It returns false —
// leaving all flow state untouched — when no prefix is provably safe and
// the caller must run a cold solve.
//
// Safety argument. Removing a flow can only raise resource headroom:
// with the same fill and the same frozen set (minus removed), every
// resource r the removed flow touched has load' <= load and sumW' <=
// sumW (the per-pass sums lose only non-negative terms from an
// order-preserving summation, and IEEE addition, subtraction and
// division are monotonic), so d' = (cap - load')/sumW' >= d holds
// *bitwise*, while every untouched resource keeps bit-identical load,
// sumW and d. A recorded pass therefore replays exactly unless its
// binding constraint involved the removed flow:
//
//   - resFired with bottleneck in removed's usage vector: the argmin's
//     operands changed. (For any untouched bottleneck b, candidates
//     scanned before b had d > delta strictly — first-wins argmin — and
//     their d only grew, so b stays the first minimum with bit-identical
//     delta.)
//   - capFired while removed was still unfrozen and alone at the cap
//     frontier: capDelta = minCap - fill came from removed.cap, and the
//     remaining minimum is larger. A duplicate holder keeps capDelta
//     bit-identical, so the pass replays.
//
// The scan stops at the first such pass; everything before it froze the
// same flows (minus removed) at the same rates with the same fill.
func (s *solver) warmSolve(flows []*Flow, resources []*Resource, capped []*Flow, traj *trajectory, removed *departure) bool {
	if !traj.valid || traj.nRes != len(resources) || traj.nFlows != len(flows)+1 {
		return false
	}
	h := 0
	for h < len(traj.passes) {
		p := &traj.passes[h]
		if p.resFired && removed.usesRes(p.bottleneck) {
			break
		}
		if p.capFired && removed.cap > 0 && removed.fpass >= int32(h) &&
			removed.cap <= p.minCap && !p.minCapDup {
			break
		}
		h++
	}
	if h == 0 {
		return false
	}
	// Hand off resource loads as of the end of pass h-1. Resources the
	// removed flow never touched carry bit-identical loads in both
	// trajectories: read them from the snapshot. Touched resources are
	// re-derived exactly as a cold solve on the surviving flows would
	// have built them: per pass, sum the weights of the surviving flows
	// still unfrozen at that pass in canonical flow order (flows is the
	// component list, which is kept in that order), then accumulate
	// sumW·step under the reference's sumW > 0 guard. The freeze passes
	// come from Flow.fpass, recorded by the cold solve and untouched
	// since. sumW doubles as the per-pass accumulator; the live loop
	// re-zeroes it before use.
	for i, r := range resources {
		if !removed.usesRes(r) {
			r.load = traj.loads[(h-1)*traj.nRes+i]
			continue
		}
		r.load = 0
	}
	for p := 0; p < h; p++ {
		for i := range removed.uses {
			removed.uses[i].res.sumW = 0
		}
		for _, f := range flows {
			if f.fpass < int32(p) {
				continue
			}
			for i := range f.uses {
				if r := f.uses[i].res; removed.usesRes(r) {
					r.sumW += f.uses[i].w
				}
			}
		}
		for i := range removed.uses {
			if r := removed.uses[i].res; r.sumW > 0 {
				r.load += r.sumW * traj.passes[p].step
			}
		}
	}
	// Replay the prefix freezes onto the surviving flows.
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
	}
	s.active = len(flows)
	for i := int32(0); i < traj.passes[h-1].frozenEnd; i++ {
		fr := traj.frozen[i]
		if fr.f == removed.f {
			continue
		}
		fr.f.frozen = true
		fr.f.rate = fr.rate
		s.active--
	}
	s.fill = traj.passes[h-1].fill
	s.unfrozen = s.unfrozen[:0]
	for i, f := range flows {
		if !f.frozen {
			s.unfrozen = append(s.unfrozen, int32(i))
		}
	}
	// The component's cap-ordered list (removed already deleted from it)
	// is the live cap frontier as-is: the head cursor and freeze walk
	// skip the prefix-frozen entries.
	s.capped = capped
	s.capHead = 0
	// The live loop's first pass rebuilds sumW and re-compacts, so the
	// candidate list can simply start as the full resource set.
	s.cands = s.cands[:0]
	for i := range resources {
		s.cands = append(s.cands, int32(i))
	}
	s.lastReplayed = h
	s.run(flows, resources, h, nil)
	return true
}

// solve is the package-level entry point used by FairShare and tests: a
// throwaway unindexed solver, no trajectory, local cap sort.
func solve(flows []*Flow, resources []*Resource) {
	var s solver
	s.solve(flows, resources, nil, nil)
}
