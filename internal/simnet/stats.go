package simnet

import (
	"repro/internal/obs"
	"repro/internal/simkernel"
)

// SolveTrigger classifies the event that caused a component rebalance.
type SolveTrigger int

const (
	// TriggerStart is a flow start (including fragment re-solves during a
	// lazy component rebuild on the start path).
	TriggerStart SolveTrigger = iota
	// TriggerComplete is a flow completion.
	TriggerComplete
	// TriggerAbort is a fault-injected flow abort.
	TriggerAbort
	// TriggerCapacity is a resource capacity change.
	TriggerCapacity

	numTriggers
)

// String implements fmt.Stringer.
func (t SolveTrigger) String() string {
	switch t {
	case TriggerStart:
		return "start"
	case TriggerComplete:
		return "complete"
	case TriggerAbort:
		return "abort"
	case TriggerCapacity:
		return "capacity"
	default:
		return "unknown"
	}
}

// Stats counts solver and rebalance activity for the observability layer.
// It is a plain struct attached via SetStats and updated behind nil
// checks, single-goroutine like the Network itself: the disabled path
// costs one pointer comparison per site, and the enabled path never
// touches the solver's floating-point state — rates, loads and event
// times are bit-identical with stats on or off.
type Stats struct {
	// Solves counts component rebalances by triggering event kind.
	Solves [numTriggers]uint64
	// Passes counts live waterfill passes (warm-start-replayed passes are
	// counted in WarmReplayedPasses instead).
	Passes uint64
	// FreezesPerPass is the histogram of flows frozen per live pass.
	FreezesPerPass obs.Log2Hist
	// ComponentFlows is the histogram of component sizes (flows) solved.
	ComponentFlows obs.Log2Hist
	// WarmHits counts removal rebalances served by the warm-start replay;
	// WarmMisses counts removal rebalances that fell back to a cold solve
	// (no recorded trajectory, or no provably safe prefix).
	WarmHits   uint64
	WarmMisses uint64
	// WarmReplayedPasses sums the recorded passes warm starts replayed
	// instead of recomputing.
	WarmReplayedPasses uint64
	// SolveBatches counts flushes that solved at least one component.
	SolveBatches uint64
	// ComponentsDirty sums the dirty components solved across flushes;
	// ComponentsDirty / SolveBatches is the mean batch width.
	ComponentsDirty uint64
	// ParallelSolves counts component solves belonging to multi-component
	// flushes — the solves eligible for the worker pool. It is defined by
	// batch shape, not by the configured worker count, so (like every
	// other field) it is identical at any SetFlushWorkers setting.
	ParallelSolves uint64
	// HierSolves counts component solves served by the hierarchical path
	// (exact or bounded-error); HierFallbacks counts solves where the
	// mode was enabled but the partition was degenerate (no separators in
	// the component, or fewer than two rack-local groups) and the flat
	// solver ran instead. Components below the hierarchical size cutoff
	// are counted in neither.
	HierSolves    uint64
	HierFallbacks uint64
	// HierOuterRounds sums bounded-error coordination rounds across
	// hierarchical solves; HierExactFallbacks counts bounded-error solves
	// that hit the round cap without converging and re-ran exactly
	// (which is how the mode guarantees its error bound).
	HierOuterRounds    uint64
	HierExactFallbacks uint64
	// HierMaxRelErr is the maximum measured bounded-error residual — the
	// max relative rate change between the final two coordination rounds
	// of any bounded solve. Exact solves and exact fallbacks contribute
	// 0; the value never exceeds the SetHierarchical bound. Exported as
	// the simnet/hier_max_rel_err metric.
	HierMaxRelErr float64
	// FlushWaveWidth is the histogram of dirty components per flush — the
	// fan-out width the worker pool sees each wave.
	FlushWaveWidth obs.Log2Hist
	// HierGroups is the histogram of rack-local group counts per
	// hierarchical solve; HierGroupFlows is the histogram of per-group flow
	// counts (one observation per group per hierarchical solve).
	HierGroups     obs.Log2Hist
	HierGroupFlows obs.Log2Hist
	// SolveLatencyNs is the histogram of wall-clock nanoseconds per
	// component rebalance. It is the one wall-clock field in this struct:
	// the glue layer exports it under the runtime/ namespace so
	// determinism checks filter it, and recording it never feeds back into
	// simulation numerics.
	SolveLatencyNs obs.Log2Hist
}

// merge folds src into st field-wise: counters by addition, histograms by
// bucket-wise addition, HierMaxRelErr by maximum. Every fold is
// commutative, so parallel flush workers may merge in any order.
func (st *Stats) merge(src *Stats) {
	for t := range src.Solves {
		st.Solves[t] += src.Solves[t]
	}
	st.Passes += src.Passes
	st.FreezesPerPass.Merge(&src.FreezesPerPass)
	st.ComponentFlows.Merge(&src.ComponentFlows)
	st.WarmHits += src.WarmHits
	st.WarmMisses += src.WarmMisses
	st.WarmReplayedPasses += src.WarmReplayedPasses
	st.SolveBatches += src.SolveBatches
	st.ComponentsDirty += src.ComponentsDirty
	st.ParallelSolves += src.ParallelSolves
	st.HierSolves += src.HierSolves
	st.HierFallbacks += src.HierFallbacks
	st.HierOuterRounds += src.HierOuterRounds
	st.HierExactFallbacks += src.HierExactFallbacks
	if src.HierMaxRelErr > st.HierMaxRelErr {
		st.HierMaxRelErr = src.HierMaxRelErr
	}
	st.FlushWaveWidth.Merge(&src.FlushWaveWidth)
	st.HierGroups.Merge(&src.HierGroups)
	st.HierGroupFlows.Merge(&src.HierGroupFlows)
	st.SolveLatencyNs.Merge(&src.SolveLatencyNs)
}

// SetStats attaches (or with nil detaches) a solver activity sink.
func (n *Network) SetStats(st *Stats) {
	n.stats = st
	n.sv.stats = st
}

// SolveInfo describes one component rebalance to a solve observer.
type SolveInfo struct {
	Trigger   SolveTrigger
	Flows     int
	Resources int
	// LivePasses is the number of waterfill passes the live loop ran.
	LivePasses int
	// WarmStart reports whether the rebalance replayed a recorded
	// trajectory prefix; ReplayedPasses is that prefix's length.
	WarmStart      bool
	ReplayedPasses int
	// Hierarchical reports whether the solve ran on the partitioned
	// (rack-local groups + separator coordination) path; Groups is the
	// rack-local group count of that partition (0 for flat solves).
	Hierarchical bool
	Groups       int
}

// ObserveSolves registers a callback invoked after every component
// rebalance with the solve's shape and cost. Pass nil to remove it. The
// callback must not mutate simulation state.
func (n *Network) ObserveSolves(fn func(at simkernel.Time, info SolveInfo)) {
	n.solveObserver = fn
}

// ObserveResources registers a callback invoked with post-solve resource
// loads: after every component rebalance for each resource of the solved
// component, and with load 0 when a resource's last in-flight flow
// departs. The tracer builds per-OST utilization timelines from it. Pass
// nil to remove it. The callback must not mutate simulation state.
func (n *Network) ObserveResources(fn func(at simkernel.Time, r *Resource, load float64)) {
	n.resObserver = fn
}

// BatchInfo describes one flush to a batch observer.
type BatchInfo struct {
	// Components is the number of dirty components this flush solved.
	Components int
	// Workers is the configured SetFlushWorkers count (the solve fans out
	// only when both Components and Workers exceed one).
	Workers int
}

// ObserveBatches registers a callback invoked once per flush that solved
// at least one component, before the solves run. Pass nil to remove it.
// The callback must not mutate simulation state.
func (n *Network) ObserveBatches(fn func(at simkernel.Time, info BatchInfo)) {
	n.batchObserver = fn
}
