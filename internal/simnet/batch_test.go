package simnet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkernel"
)

// rampWorld builds the shape batching exists for: n flows sharing one
// ramp resource (plus a private resource each), all started at the same
// instant — the t=0 client-ramp storm that would cost an event-at-a-time
// solver one full-component solve per start.
func rampWorld(n int, workers int) (*simkernel.Simulation, *Network, []*Flow) {
	sim := simkernel.New()
	net := New(sim)
	net.SetFlushWorkers(workers)
	ramp := net.AddResource("ramp", 1000)
	flows := make([]*Flow, n)
	for i := range flows {
		own := net.AddResource(fmt.Sprintf("nic%03d", i), 40+float64(i%7)*5)
		f := &Flow{
			Name:   fmt.Sprintf("c%03d", i),
			Volume: 50 + float64(i%11)*8,
			Usage:  map[*Resource]float64{ramp: 0.5, own: 1},
		}
		flows[i] = f
		sim.At(0, func() { net.Start(f) })
	}
	return sim, net, flows
}

// TestBatchRampSolvesOncePerInstant is the batching claim in miniature: a
// shared ramp starting N flows at one instant costs one full-component
// solve, not one per start, and that solve's rates match the reference
// waterfill at 0 ULP. The completion instants are identical at one and
// at four flush workers.
func TestBatchRampSolvesOncePerInstant(t *testing.T) {
	const n = 64
	run := func(workers int) []uint64 {
		sim, net, flows := rampWorld(n, workers)
		var st Stats
		net.SetStats(&st)
		if err := sim.RunUntil(0); err != nil {
			t.Fatal(err)
		}
		if got := st.Solves[TriggerStart]; got != 1 {
			t.Fatalf("start solves at t=0 = %d, want 1 (one per instant)", got)
		}
		if st.SolveBatches != 1 || st.ComponentsDirty != 1 {
			t.Fatalf("batch stats at t=0: %d batches, %d dirty components, want 1/1", st.SolveBatches, st.ComponentsDirty)
		}
		verifyNet(t, net)
		done := make([]uint64, n)
		for i, f := range flows {
			f.OnComplete = func(at simkernel.Time) { done[i] = math.Float64bits(float64(at)) }
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			if !f.Done() {
				t.Fatalf("flow %s did not finish", f.Name)
			}
		}
		return done
	}
	if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
		t.Fatal("completion instants differ between 1 and 4 flush workers")
	}
}

// TestBatchedParallelBitIdentical checks the deterministic merge: a
// many-component workload solved with 1, 2 and 8 flush workers must
// produce byte-identical observer logs and final state. Components are
// disjoint and finished in component-id order, so worker count must be
// invisible.
func TestBatchedParallelBitIdentical(t *testing.T) {
	const comps = 24
	run := func(workers int) ([]string, Stats) {
		sim := simkernel.New()
		net := New(sim)
		net.SetFlushWorkers(workers)
		var st Stats
		net.SetStats(&st)
		var log []string
		net.Observe(func(at simkernel.Time, f *Flow, rate float64) {
			log = append(log, fmt.Sprintf("%x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(rate)))
		})
		for c := 0; c < comps; c++ {
			shared := net.AddResource(fmt.Sprintf("g%02d/shared", c), 120+10*float64(c%5))
			for i := 0; i < 3; i++ {
				f := &Flow{
					Name:   fmt.Sprintf("g%02d/f%d", c, i),
					Volume: 30 + float64((c*3+i)%17)*4,
					Usage:  map[*Resource]float64{shared: 1},
				}
				if i == 2 {
					f.Cap = 20 + float64(c%4)*10
				}
				sim.At(0, func() { net.Start(f) })
				// A second wave of same-instant starts later, so mid-run
				// flushes see many dirty components too.
				g := &Flow{
					Name:   fmt.Sprintf("g%02d/w%d", c, i),
					Volume: 10 + float64(i)*3,
					Usage:  map[*Resource]float64{shared: 0.5},
				}
				sim.At(2, func() { net.Start(g) })
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return log, st
	}
	log1, st1 := run(1)
	// SolveLatencyNs is the one wall-clock field in Stats (exported under
	// runtime/, excluded from every determinism contract); its count must
	// still match the solve count at any worker setting.
	if st1.SolveLatencyNs.Count != st1.ComponentFlows.Count {
		t.Fatalf("solve latency count %d != solve count %d", st1.SolveLatencyNs.Count, st1.ComponentFlows.Count)
	}
	st1.SolveLatencyNs = obs.Log2Hist{}
	for _, workers := range []int{2, 8} {
		logW, stW := run(workers)
		if !reflect.DeepEqual(log1, logW) {
			t.Fatalf("observer log differs between 1 and %d workers", workers)
		}
		if stW.SolveLatencyNs.Count != stW.ComponentFlows.Count {
			t.Fatalf("solve latency count %d != solve count %d at %d workers", stW.SolveLatencyNs.Count, stW.ComponentFlows.Count, workers)
		}
		stW.SolveLatencyNs = obs.Log2Hist{}
		if !reflect.DeepEqual(st1, stW) {
			t.Fatalf("stats differ between 1 and %d workers:\n1: %+v\n%d: %+v", workers, st1, workers, stW)
		}
	}
	if st1.ParallelSolves == 0 {
		t.Fatalf("multi-component flushes recorded no parallel-eligible solves: %+v", st1)
	}
}

// TestBatchObserver checks the per-flush hook and its shape reporting.
func TestBatchObserver(t *testing.T) {
	sim, net, _ := rampWorld(8, 3)
	batches := 0
	maxComps := 0
	net.ObserveBatches(func(at simkernel.Time, info BatchInfo) {
		batches++
		if info.Workers != 3 {
			t.Fatalf("BatchInfo.Workers = %d, want 3", info.Workers)
		}
		if info.Components > maxComps {
			maxComps = info.Components
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if batches == 0 || maxComps == 0 {
		t.Fatalf("batch observer saw %d batches, max width %d", batches, maxComps)
	}
}

// TestBatchedMidInstantCompletionGuard pins the stale-prediction guard: a
// completion event derived from pre-batch rates that fires in the same
// instant as a capacity cut must not complete the flow on the stale
// prediction — the flush re-derives the instant from the fresh rates. The
// flow has sent its whole volume by then, so it completes at exactly t=1.
func TestBatchedMidInstantCompletionGuard(t *testing.T) {
	run := func(workers int) (doneAt simkernel.Time) {
		sim := simkernel.New()
		net := New(sim)
		net.SetFlushWorkers(workers)
		link := net.AddResource("link", 100)
		f := &Flow{
			Name:   "f",
			Volume: 100, // completes at t=1 at full rate
			Usage:  map[*Resource]float64{link: 1},
			OnComplete: func(at simkernel.Time) {
				doneAt = at
			},
		}
		sim.At(0, func() { net.Start(f) })
		// At the exact predicted completion instant, halve the capacity.
		// The completion event (scheduled long ago, low sequence number)
		// fires before the flush; its prediction is stale by the cut.
		sim.At(1, func() { net.SetCapacity(link, 50) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return doneAt
	}
	for _, workers := range []int{1, 2} {
		if got := run(workers); got != 1 {
			t.Fatalf("completion at %v with %d flush workers, want exactly 1", got, workers)
		}
	}
}

// TestBatchedIdleCapacityCadence pins the settleRescheduleAll interplay:
// an idle-resource capacity change in the same instant as a flow start
// must leave the dirty component to the flush. Rates match the reference
// solver at every instant boundary, and the completion instants are the
// ones the event-at-a-time solver produced, bit for bit.
func TestBatchedIdleCapacityCadence(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sim := simkernel.New()
		net := New(sim)
		net.SetFlushWorkers(workers)
		a := net.AddResource("a", 100)
		idle := net.AddResource("idle", 10)
		var fDone, gDone simkernel.Time
		f := &Flow{Name: "f", Volume: 60, Usage: map[*Resource]float64{a: 1},
			OnComplete: func(at simkernel.Time) { fDone = at }}
		g := &Flow{Name: "g", Volume: 45, Usage: map[*Resource]float64{a: 1},
			OnComplete: func(at simkernel.Time) { gDone = at }}
		sim.At(0, func() { net.Start(f) })
		// Same instant: a start (dirties f's component) and an idle-
		// resource capacity change (settle-reschedule path).
		sim.At(0.5, func() { net.Start(g) })
		sim.At(0.5, func() { net.SetCapacity(idle, 75) })
		for {
			at, ok := sim.NextAt()
			if !ok {
				break
			}
			if err := sim.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			verifyNet(t, net)
		}
		if fDone != 0.7 || gDone != 1.0499999999999998 {
			t.Fatalf("%d flush workers: completions at %v/%v, want 0.7/1.0499999999999998", workers, fDone, gDone)
		}
	}
}

// TestBatchedWarmHintSurvivesFlowReuse pins flow ownership under
// batching: once OnComplete has run, the Flow struct is its caller's
// again, even though the component it left is solved only at the
// instant's flush. Here the completion handler re-starts the same struct
// on a disjoint route before that flush (as beegfs does when a pooled
// attempt is reissued), and the warm-started rates of the component it
// left must still match the reference waterfill at 0 ULP. With two
// workers both dirty components go through the parallel flush.
func TestBatchedWarmHintSurvivesFlowReuse(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			sim := simkernel.New()
			net := New(sim)
			net.SetFlushWorkers(workers)
			var st Stats
			net.SetStats(&st)
			// Enough flows for the solve to record its trajectory. The NICs
			// bind one by one; the widest ones freeze together at the
			// shared core in the last pass.
			const n = recordMinFlows + 12
			core := net.AddResource("core", 1500)
			flows := make([]*Flow, n)
			for i := range flows {
				nic := net.AddResource(fmt.Sprintf("nic%02d", i), 10+float64(i))
				flows[i] = &Flow{Name: fmt.Sprintf("f%02d", i), Volume: 1e6,
					Usage: map[*Resource]float64{core: 1, nic: 1}}
			}
			// x uses only the core, so its departure leaves the resource
			// set intact; it freezes in the core pass and finishes long
			// before the others, so the warm start can replay every NIC
			// pass before that.
			x := flows[n-1]
			x.Volume = 1
			x.Usage = map[*Resource]float64{core: 1}
			elsewhere := net.AddResource("elsewhere", 7)
			checked := false
			check := func() {
				checked = true
				c := flows[0].comp
				if c == x.comp || len(c.flows) != n-1 {
					t.Fatalf("component left by x has %d flows (want %d)", len(c.flows), n-1)
				}
				got := make([]uint64, len(c.flows))
				for i, f := range c.flows {
					got[i] = math.Float64bits(f.rate)
				}
				solveReference(c.flows, c.resources)
				for i, f := range c.flows {
					if want := math.Float64bits(f.rate); got[i] != want {
						t.Fatalf("flow %s rate bits %x after the flush, reference %x", f.Name, got[i], want)
					}
				}
			}
			x.OnComplete = func(simkernel.Time) {
				x.OnComplete = nil
				x.Usage = map[*Resource]float64{elsewhere: 1}
				x.Volume = 1e6
				net.Start(x)
				sim.After(1e-3, check)
			}
			sim.At(0, func() {
				for _, f := range flows {
					net.Start(f)
				}
			})
			for !checked && sim.Step() {
			}
			if !checked {
				t.Fatal("x never completed")
			}
			if st.WarmHits != 1 {
				t.Fatalf("warm hits = %d, want 1 (the departure must take the warm-start path)", st.WarmHits)
			}
		})
	}
}

// TestSetFlushWorkersGuards checks the worker-count preconditions: a
// count below one panics, the count may not change while flows are in
// flight or a flush is pending, and the forceGlobal test mode accepts any
// legal count.
func TestSetFlushWorkersGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	sim := simkernel.New()
	net := New(sim)
	if net.flushWorkers != 1 {
		t.Fatalf("default flush workers = %d, want 1", net.flushWorkers)
	}
	expectPanic("negative workers", func() { net.SetFlushWorkers(-1) })
	expectPanic("zero workers", func() { net.SetFlushWorkers(0) })
	gl := New(sim)
	gl.forceGlobal = true
	gl.SetFlushWorkers(2)
	r := net.AddResource("r", 10)
	f := &Flow{Name: "f", Volume: 5, Usage: map[*Resource]float64{r: 1}}
	net.Start(f)
	expectPanic("mid-flight", func() { net.SetFlushWorkers(2) })
	net.Abort(f)
	expectPanic("flush pending", func() { net.SetFlushWorkers(2) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	net.SetFlushWorkers(2) // legal again once nothing is in flight
	if net.flushWorkers != 2 {
		t.Fatalf("flush workers = %d, want 2", net.flushWorkers)
	}
}

// burstWorld puts k equal-volume flows b0..b{k-1} on one link, started in
// reverse name order, so that all of them drain at t=1 with exact
// arithmetic (rate 10, volume 10). setup adds the survivor flow that must
// outlive the burst and, optionally, a second resource that b3 also
// crosses.
func burstWorld(k int, linkCap float64, setup func(net *Network, link *Resource) (s *Flow, coupled *Resource)) (*simkernel.Simulation, *Network, *Flow, *[]string) {
	sim := simkernel.New()
	net := New(sim)
	link := net.AddResource("link", linkCap)
	var order []string
	s, coupled := setup(net, link)
	net.Start(s)
	for i := k - 1; i >= 0; i-- {
		name := fmt.Sprintf("b%d", i)
		f := &Flow{Name: name, Volume: 10, Usage: map[*Resource]float64{link: 1},
			OnComplete: func(simkernel.Time) { order = append(order, name) }}
		if i == 3 && coupled != nil {
			f.Usage[coupled] = 1
		}
		net.Start(f)
	}
	return sim, net, s, &order
}

// TestCompletionBurstSolvesOnce pins the burst drain: k flows of one
// component that drain at the same instant cost one completion-triggered
// solve (a solve per wave would cost k: each completion leaves the
// survivor behind), complete in (Name, seq) order, and dispatch O(k)
// events at that instant rather than O(k²). The flows were started in
// reverse name order, so the completion order is the flush's, not the
// start order.
func TestCompletionBurstSolvesOnce(t *testing.T) {
	const k = 8
	sim, net, s, order := burstWorld(k, 10*(k+1), func(net *Network, link *Resource) (*Flow, *Resource) {
		return &Flow{Name: "s", Volume: 1000, Usage: map[*Resource]float64{link: 1}}, nil
	})
	var st Stats
	net.SetStats(&st)
	var ks simkernel.Stats
	sim.SetStats(&ks)
	if err := sim.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	verifyNet(t, net)
	at, ok := sim.NextAt()
	if !ok || at != 1 {
		t.Fatalf("next event at %v (%v), want the burst at exactly 1", at, ok)
	}
	before := ks.Dispatched
	if err := sim.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	if got := st.Solves[TriggerComplete]; got != 1 {
		t.Fatalf("completion-triggered solves for a %d-flow burst = %d, want 1", k, got)
	}
	want := make([]string, k)
	for i := range want {
		want[i] = fmt.Sprintf("b%d", i)
	}
	if !reflect.DeepEqual(*order, want) {
		t.Fatalf("completion order %v, want %v", *order, want)
	}
	// k original completion events (the first completes, the rest fire
	// stale against the dirty component), one flush per wave and one
	// re-queued head per skipped wave: 3k-1. A solve per wave re-queues
	// every remaining drained flow instead, k + k + k(k-1)/2 in all.
	if got := ks.Dispatched - before; got > 3*k {
		t.Fatalf("%d events dispatched at the burst instant, want at most %d", got, 3*k)
	}
	verifyNet(t, net)
	if s.Rate() != 10*(k+1) {
		t.Fatalf("survivor rate %v after the burst, want the whole link", s.Rate())
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || sim.Now() != 1+simkernel.Time(990.0/(10*(k+1))) {
		t.Fatalf("survivor done=%v at %v", s.Done(), sim.Now())
	}
}

// TestCompletionBurstSurvivorOnSecondLink adds a survivor that shares a
// second link with one burst flow only. The skipped waves leave the
// survivor's rate and event alone; the one solve after the burst places
// its completion at the reference solver's instant, checked to 0 ULP by
// verifyNet at every instant boundary.
func TestCompletionBurstSurvivorOnSecondLink(t *testing.T) {
	const k = 8
	// b3 also crosses the survivor's link, coupling the survivor to the
	// burst's component; the first link still binds b3 at rate 10.
	sim, net, s, order := burstWorld(k, 10*k, func(net *Network, link *Resource) (*Flow, *Resource) {
		other := net.AddResource("other", 50)
		return &Flow{Name: "s", Volume: 100, Usage: map[*Resource]float64{other: 1}}, other
	})
	var st Stats
	net.SetStats(&st)
	runVerifiedNet(t, sim, net, 1)
	if got := st.Solves[TriggerComplete]; got != 1 {
		t.Fatalf("completion-triggered solves = %d, want 1", got)
	}
	if len(*order) != k {
		t.Fatalf("%d burst completions by t=1, want %d", len(*order), k)
	}
	if s.comp == nil || len(s.comp.flows) != 1 || s.Rate() != 50 {
		t.Fatalf("survivor rate %v after the burst, want 50 alone on its link", s.Rate())
	}
	runVerifiedNet(t, sim, net, simkernel.Never)
	if !s.Done() || sim.Now() != 1+simkernel.Time(60.0/50) {
		t.Fatalf("survivor done=%v at %v, want %v", s.Done(), sim.Now(), 1+simkernel.Time(60.0/50))
	}
}

// runVerifiedNet runs sim one virtual instant at a time up to and
// including until, applying verifyNet at every instant boundary.
func runVerifiedNet(t *testing.T, sim *simkernel.Simulation, net *Network, until simkernel.Time) {
	t.Helper()
	for {
		at, ok := sim.NextAt()
		if !ok || at > until {
			return
		}
		if err := sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		verifyNet(t, net)
	}
}
