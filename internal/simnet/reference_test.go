package simnet

import "math"

// solveReference is the textbook waterfill: every pass rescans every
// flow and every resource. It is kept verbatim as the oracle the
// incremental solver (solver.go) is differentially tested against — the
// fuzz harness re-solves components with it and demands 0-ULP agreement.
// The resources slice must contain every resource touched by the flows;
// the waterfill reads only the flows and resources it is given, so
// solving a component in isolation performs bit-for-bit the same
// floating-point operations as solving it as part of a larger disjoint
// union whose fill trajectory it leads.
func solveReference(flows []*Flow, resources []*Resource) {
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
	}
	for _, r := range resources {
		r.load = 0
	}
	active := len(flows)
	fill := 0.0
	for iter := 0; active > 0 && iter <= len(flows)+len(resources)+1; iter++ {
		// Per-resource demand of the unfrozen flows.
		for _, r := range resources {
			r.sumW = 0
		}
		for _, f := range flows {
			if f.frozen {
				continue
			}
			for i := range f.uses {
				f.uses[i].res.sumW += f.uses[i].w
			}
		}
		// Maximum additional fill before some resource saturates.
		delta := math.Inf(1)
		var bottleneck *Resource
		for _, r := range resources {
			if r.sumW == 0 {
				continue
			}
			d := (r.capacity - r.load) / r.sumW
			if d < delta {
				delta = d
				bottleneck = r
			}
		}
		// Maximum additional fill before some flow hits its cap.
		capDelta := math.Inf(1)
		for _, f := range flows {
			if !f.frozen && f.Cap > 0 {
				if d := f.Cap - fill; d < capDelta {
					capDelta = d
				}
			}
		}
		if math.IsInf(delta, 1) && math.IsInf(capDelta, 1) {
			// No binding constraint: flows without usage or caps — should
			// not happen given Start's validation, but guard anyway.
			break
		}
		step := math.Min(delta, capDelta)
		if step < 0 {
			step = 0
		}
		fill += step
		for _, r := range resources {
			if r.sumW > 0 {
				r.load += r.sumW * step
			}
		}
		// Freeze flows that hit the binding constraint.
		before := active
		if capDelta <= delta {
			for _, f := range flows {
				if !f.frozen && f.Cap > 0 && f.Cap <= fill+1e-12 {
					f.frozen = true
					f.rate = f.Cap
					active--
				}
			}
		}
		if delta <= capDelta && bottleneck != nil {
			for _, f := range flows {
				if !f.frozen && f.usesRes(bottleneck) {
					f.frozen = true
					f.rate = fill
					active--
				}
			}
		}
		if active == before && step == 0 {
			// Early exit: the pass froze nothing and the fill level did
			// not move, so no unfrozen flow's bottleneck changed — every
			// further iteration would replay this exact state until the
			// iteration cap. Leaving now assigns the unfrozen flows the
			// same fill level the capped loop would have produced, so the
			// result is bit-identical, just cheaper.
			break
		}
	}
	for _, f := range flows {
		if !f.frozen {
			f.rate = fill
		}
	}
}
