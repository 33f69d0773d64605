package simnet

// Same-instant event batching and parallel per-component solving.
//
// Every event (flow start, completion, abort, capacity change) performs
// its O(1) membership work eagerly — settle (a same-instant re-settle is a
// dt=0 no-op), insert/remove, union/rebuild, capacity write — but instead
// of solving it marks the touched component dirty and arms a single flush
// event at the current instant. The flush is the instant's solve barrier:
// arming re-queues an already-fired event, which the kernel assigns a
// fresh sequence number, so the flush always fires after every event
// already queued at this instant. Events that cascade from the flush
// itself (completions it re-schedules to the same instant, OnComplete
// handlers starting new flows) re-arm the flush, forming another wave; the
// instant drains with each dirty component solved at most once per wave
// instead of once per event. A shared client ramp starting N clients at
// t=0 thus costs one full-component waterfill, not N, and a client's
// write start plus the concave-capacity change it triggers cost one
// solve, not two.
//
// A completion burst — k flows of one component draining at the same
// instant, as balanced allocations produce — completes one flow per wave,
// since each completion dirties the component again. A wave that still
// finds a drained flow and no other flow that could be due now skips the
// solve and re-queues just the next drained flow (drainsWithoutSolve,
// drainHead), so the burst costs one solve, on the final membership, and
// O(k) events rather than k solves and O(k²) stale completion events.
//
// The flush's per-component solve is the same cold (or warm-started)
// waterfill an event-at-a-time solver would have run on the instant's
// final membership, so rates, remainders and completion instants at every
// instant boundary are those of the reference solver (the batched fuzzer,
// FuzzBatchedVsSequentialEvents, checks them against solveReference at
// 0 ULP). What batching does not fix is mid-instant order: rate observers
// fire once per flush rather than once per event, a drained flow gets no
// intermediate rate report before its completion's rate 0, and completion
// events due at the same instant fire in kernel-sequence order, which the
// flush's rescheduling — not the order the flows were started in —
// determines.
//
// With more than one flush worker (SetFlushWorkers), a flush with several
// dirty components fans the solves over that many goroutines. Components
// are disjoint by construction — a resource and a flow belong to exactly
// one component — so the solves touch disjoint memory, and the finish
// phase (completion scheduling, observers, stats) runs serially in
// component-id order. Output is byte-identical at any worker count.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simkernel"
)

// SetFlushWorkers sets how many goroutines a flush fans independent dirty
// component solves over. The default, 1, solves them serially on the
// event-loop goroutine; output is bit-identical at any setting. It panics
// on workers < 1, and while a flow is in flight or a flush is pending.
func (n *Network) SetFlushWorkers(workers int) {
	if workers < 1 {
		panic(fmt.Sprintf("simnet: flush worker count %d < 1", workers))
	}
	if n.nActive > 0 || n.flushArmed {
		panic("simnet: SetFlushWorkers while flows are in flight")
	}
	n.flushWorkers = workers
	if workers > 1 && len(n.psv) < workers {
		n.psv = make([]solver, workers)
		n.workerStats = make([]Stats, workers)
	}
}

// markDirty queues c for the instant's flush. The first mark of an
// instant records the triggering event kind (for stats classification)
// and a copy of the removed flow, which the flush uses as its warm-start
// hint; any further event on the same component clears the hint — the
// trajectory replay is only valid for exactly one departure. The copy is
// what lets the caller re-Start the Flow struct before the flush.
func (n *Network) markDirty(c *component, removed *Flow, trig SolveTrigger) {
	if !c.dirty {
		c.dirty = true
		c.pendEvents = 0
		c.pendTrig = trig
		n.dirtyComps = append(n.dirtyComps, c)
	}
	c.pendEvents++
	if c.pendEvents == 1 && removed != nil {
		c.departed.record(removed, c.traj.valid)
	} else {
		c.departed.clear()
	}
	n.armFlush()
}

// armFlush schedules (or re-queues) the flush event at the current
// instant. Re-queueing a fired event assigns a fresh kernel sequence
// number, so the flush fires after every event currently queued at this
// instant — the wave barrier batching is built on.
func (n *Network) armFlush() {
	if n.flushArmed {
		return
	}
	n.flushArmed = true
	now := n.sim.Now()
	if n.flushEvent == nil {
		n.flushEvent = n.sim.At(now, n.flush)
		return
	}
	n.sim.Reschedule(n.flushEvent, now)
}

// flush solves every dirty component once and re-derives its completion
// events. Components dropped (emptied or merged away) since their mark
// had their dirty flag cleared by reset, so the flag doubles as the
// dedup: each component is collected at most once no matter how many
// stale list entries point at it.
func (n *Network) flush() {
	n.flushArmed = false
	now := n.sim.Now()
	comps := n.flushComps[:0]
	for _, c := range n.dirtyComps {
		if c.dirty {
			c.dirty = false
			comps = append(comps, c)
		}
	}
	clear(n.dirtyComps)
	n.dirtyComps = n.dirtyComps[:0]
	n.flushComps = comps
	if len(comps) == 0 {
		return
	}
	// Component-id order: the deterministic merge order for everything the
	// finish phase emits (completion events, observer callbacks, stats).
	insertionSortByID(comps)
	nSolve := 0
	for _, c := range comps {
		c.ratesStale = drainsWithoutSolve(c, now)
		if !c.ratesStale {
			nSolve++
		}
	}
	if nSolve > 0 {
		if n.stats != nil {
			n.stats.SolveBatches++
			n.stats.ComponentsDirty += uint64(nSolve)
			n.stats.FlushWaveWidth.Observe(uint64(nSolve))
			if nSolve > 1 {
				n.stats.ParallelSolves += uint64(nSolve)
			}
		}
		if n.batchObserver != nil {
			n.batchObserver(now, BatchInfo{Components: nSolve, Workers: n.flushWorkers})
		}
	}
	// Old rates for the rate observer must be captured before any solve
	// runs: one flat buffer with per-component offsets.
	if n.observer != nil {
		n.rateOff = append(n.rateOff[:0], 0)
		n.oldRates = n.oldRates[:0]
		for _, c := range comps {
			for _, f := range c.flows {
				n.oldRates = append(n.oldRates, f.rate)
			}
			n.rateOff = append(n.rateOff, len(n.oldRates))
		}
	}
	if n.flushWorkers > 1 && nSolve > 1 {
		n.solveParallel(comps)
	} else {
		for _, c := range comps {
			if !c.ratesStale {
				n.solveComp(&n.sv, c, true)
			}
		}
	}
	for i, c := range comps {
		if c.ratesStale {
			n.drainHead(c, now)
		} else {
			n.finishComp(c, i, now)
		}
		comps[i] = nil
	}
}

// drainsWithoutSolve reports whether c's flush solve can be skipped
// because it cannot change which of c's flows are due at now. That holds
// when at least one flow is drained (its settled remainder is exactly 0,
// so it is due at now whatever rate it gets) and every other flow is
// provably not due at now under any rate the solve could assign: its
// event is not pending at now, and even at twice its rate bound (the
// factor 2 absorbs the solver's last-ULP overshoot) its completion
// instant lies after now.
//
// Skipping is exact. Settlement within an instant integrates over dt = 0,
// so rates a skipped solve would have assigned never move any volume, and
// the wave that finds no drained flow left solves the instant's final
// membership, placing every survivor's completion exactly as a solve per
// wave would have.
func drainsWithoutSolve(c *component, now simkernel.Time) bool {
	drained := false
	for _, f := range c.flows {
		if f.remaining == 0 {
			drained = true
			break
		}
	}
	if !drained {
		return false
	}
	for _, f := range c.flows {
		if f.remaining == 0 {
			continue
		}
		if f.event != nil && f.event.Scheduled() && f.event.When() == now {
			return false
		}
		if now+simkernel.Time(f.remaining/(2*maxRate(f))) <= now {
			return false
		}
	}
	return true
}

// maxRate bounds the rate any solve can assign f: its cap, and
// capacity/weight on every resource it uses. It is +Inf for an uncapped
// flow without uses, which drainsWithoutSolve then treats as possibly due.
func maxRate(f *Flow) float64 {
	bound := math.Inf(1)
	if f.Cap > 0 {
		bound = f.Cap
	}
	for i := range f.uses {
		bound = min(bound, f.uses[i].res.capacity/f.uses[i].w)
	}
	return bound
}

// drainHead is the finish phase of a component whose solve was skipped
// (see drainsWithoutSolve). Drained flows whose completion event is still
// pending move to now in place, keeping their kernel sequence, as the
// solve's rescheduling would have moved them. Of the drained flows whose
// event has fired, only the first in (Name, seq) order is re-queued: its
// completion dirties c again, so every other one would only fire stale
// behind it. It takes the kernel position a per-wave solve's first
// re-queue would have, so completion callbacks keep their order. The next
// wave repeats the check; the one that finds no drained flow solves.
//
// c's rates, warm-start trajectory and departure hint describe a
// membership the burst is dismantling. The trajectory and hint are
// dropped, and c.ratesStale (set by the flush) keeps settleRescheduleAll
// from deriving completion instants from the rates until the next solve.
func (n *Network) drainHead(c *component, now simkernel.Time) {
	c.pendEvents = 0
	c.departed.clear()
	c.traj.valid = false
	head := true
	for _, f := range c.flows {
		if f.remaining != 0 {
			continue
		}
		if f.event != nil && f.event.Scheduled() {
			n.scheduleCompletion(f, now)
		} else if head {
			n.scheduleCompletion(f, now)
			head = false
		}
	}
}

// insertionSortByID sorts components by creation id. Flush batches are
// small (one entry per dirty component); insertion sort keeps the flush
// free of sort.Slice closure allocations.
func insertionSortByID(comps []*component) {
	for i := 1; i < len(comps); i++ {
		c := comps[i]
		j := i
		for ; j > 0 && comps[j-1].id > c.id; j-- {
			comps[j] = comps[j-1]
		}
		comps[j] = c
	}
}

// solveParallel runs the batch's component solves on up to
// n.flushWorkers goroutines. A solve touches only component-local state
// (flow rates, resource loads, the component's trajectory and outcome)
// plus a per-worker solver and stats shard, so the only cross-goroutine
// coordination is the work-stealing counter.
func (n *Network) solveParallel(comps []*component) {
	workers := min(n.flushWorkers, len(comps))
	recordStats := n.stats != nil
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sv := &n.psv[w]
			if recordStats {
				n.workerStats[w] = Stats{}
				sv.stats = &n.workerStats[w]
			} else {
				sv.stats = nil
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(comps) {
					return
				}
				// Internal hierarchical parallelism stays off here — the
				// flush workers already own the cores — and trySolve's
				// mutex serializes the shared partition scratch. Neither
				// the worker count nor the solve order changes the
				// hierarchical arithmetic.
				if !comps[i].ratesStale {
					n.solveComp(sv, comps[i], false)
				}
			}
		}(w)
	}
	wg.Wait()
	if recordStats {
		// Stats.merge folds each worker's shard field-wise: counters by
		// addition, histograms by bucket-wise addition, HierMaxRelErr by
		// max. Every fold is order-independent, so the merged stats match
		// the serial flush regardless of which worker solved which
		// component.
		for w := 0; w < workers; w++ {
			n.stats.merge(&n.workerStats[w])
		}
	}
}

// solveComp recomputes fair-share rates for one dirty component with sv,
// recording the outcome in c.solved for finishComp. When c.departed holds
// a flow whose departure is the only change since c's last solve, it tries
// the warm-start path, replaying the recorded freeze trajectory's
// unaffected prefix instead of re-solving from scratch. Either way the
// rates are bit-identical to a cold solve. In steady state (buffers warmed
// up) this performs zero heap allocations.
func (n *Network) solveComp(sv *solver, c *component, hierPar bool) {
	// Wall-clock solve latency is recorded only when stats are attached
	// (one time.Now() pair per solve) and exported under the runtime/
	// namespace; it never feeds back into simulation arithmetic.
	var solveStart time.Time
	if sv.stats != nil {
		solveStart = time.Now()
	}
	sv.indexed = true
	sv.lastGroups = 0
	o := solveOutcome{warm: c.departed.f != nil}
	if o.warm && c.traj.valid {
		o.warmHit = sv.warmSolve(c.flows, c.resources, c.capped, &c.traj, &c.departed)
	}
	// Whatever happens next, the last recorded trajectory no longer
	// matches the component: a warm start consumed it, and a cold solve
	// either re-records it or (below the size cutoff) leaves it stale.
	c.traj.valid = false
	if !o.warmHit {
		sv.lastReplayed = 0
		if n.hier != nil {
			o.hier = n.hier.trySolve(c, sv, sv.stats, hierPar)
		}
		if !o.hier {
			rec := &c.traj
			if len(c.flows) < recordMinFlows {
				// Recording exists to amortize big solves across removals;
				// on small components the per-pass load snapshots cost more
				// than a cold re-solve, so skip both recording and (by the
				// invalidation above) any future warm start.
				rec = nil
			}
			sv.solve(c.flows, c.resources, c.capped, rec)
		}
	}
	if sv.stats != nil {
		sv.stats.SolveLatencyNs.Observe(uint64(time.Since(solveStart)))
	}
	o.live, o.replayed, o.groups = sv.lastLive, sv.lastReplayed, sv.lastGroups
	c.solved = o
}

// finishComp is the serial tail of a component's flush solve: it
// reschedules every completion event of c (and no other component's),
// then emits stats and observer callbacks. i is c's slot in the flush
// batch, indexing the observer's captured old rates.
func (n *Network) finishComp(c *component, i int, now simkernel.Time) {
	o := c.solved
	c.pendEvents = 0
	c.departed.clear()
	if n.stats != nil {
		n.stats.Solves[c.pendTrig]++
		n.stats.ComponentFlows.Observe(uint64(len(c.flows)))
		if o.warm {
			if o.warmHit {
				n.stats.WarmHits++
				n.stats.WarmReplayedPasses += uint64(o.replayed)
			} else {
				n.stats.WarmMisses++
			}
		}
	}
	for j, f := range c.flows {
		n.scheduleCompletion(f, now)
		if n.observer != nil && f.rate != n.oldRates[n.rateOff[i]+j] {
			n.observer(now, f, f.rate)
		}
	}
	if n.resObserver != nil {
		for _, r := range c.resources {
			n.resObserver(now, r, r.load)
		}
	}
	if n.solveObserver != nil {
		n.solveObserver(now, SolveInfo{
			Trigger:        c.pendTrig,
			Flows:          len(c.flows),
			Resources:      len(c.resources),
			LivePasses:     o.live,
			WarmStart:      o.warmHit,
			ReplayedPasses: o.replayed,
			Hierarchical:   o.hier,
			Groups:         o.groups,
		})
	}
}
