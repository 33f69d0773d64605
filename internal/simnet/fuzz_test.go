package simnet

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/simkernel"
)

// fzReader hands out fuzz bytes sequentially, returning zero once the
// input is exhausted so every byte slice decodes to a valid scenario.
type fzReader struct {
	data []byte
	i    int
}

func (r *fzReader) done() bool { return r.i >= len(r.data) }

func (r *fzReader) byte() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

const (
	fopStart = iota
	fopAbort
	fopSetCap
)

// fop is one decoded script operation, applied identically to every world.
type fop struct {
	kind    int
	a, b, c byte
	at      simkernel.Time
}

// fzScenario is a fully decoded fuzz input: a resource set and a time-
// ordered op script, interpretable against any Network implementation.
type fzScenario struct {
	caps   []float64
	shared bool
	ops    []fop
}

func decodeScenario(data []byte) fzScenario {
	r := &fzReader{data: data}
	var sc fzScenario
	nRes := 3 + int(r.byte()%6)
	sc.caps = make([]float64, nRes)
	for i := range sc.caps {
		sc.caps[i] = 25.0 * float64(1+int(r.byte()%40))
	}
	sc.shared = r.byte()&1 == 1
	t := simkernel.Time(0)
	for len(sc.ops) < 48 && !r.done() {
		k := r.byte() % 4
		t += simkernel.Time(0.25 + 0.25*float64(r.byte()%32))
		op := fop{at: t}
		switch {
		case k <= 1:
			op.kind = fopStart
			op.a, op.b, op.c = r.byte(), r.byte(), r.byte()
		case k == 2:
			op.kind = fopAbort
			op.a = r.byte()
		default:
			op.kind = fopSetCap
			op.a, op.b = r.byte(), r.byte()
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// fzWorld is one independent simulation executing a scenario. Two worlds
// built from the same scenario perform the same script at the same virtual
// times; their logs record every observable (observer callbacks,
// completions, aborts) with float bits spelled out so comparison is exact.
type fzWorld struct {
	sim     *simkernel.Simulation
	net     *Network
	res     []*Resource
	started []*Flow
	log     []string
	st      Stats
	// kept counts completions that left their component non-empty: the
	// completion-triggered solves a flush that solved every wave would run.
	kept uint64
}

// buildWorld constructs a world running sc's script; forceGlobal keeps
// every flow in one component and flushWorkers is the flush solver pool
// width.
func buildWorld(sc fzScenario, forceGlobal bool, flushWorkers int) *fzWorld {
	w := &fzWorld{sim: simkernel.New()}
	w.net = New(w.sim)
	w.net.forceGlobal = forceGlobal
	w.net.SetFlushWorkers(flushWorkers)
	w.net.SetStats(&w.st)
	for i, c := range sc.caps {
		w.res = append(w.res, w.net.AddResource(fmt.Sprintf("r%d", i), c))
	}
	w.net.Observe(func(at simkernel.Time, f *Flow, rate float64) {
		w.log = append(w.log, fmt.Sprintf("obs %x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(rate)))
	})
	for _, op := range sc.ops {
		op := op
		w.sim.At(op.at, func() { w.apply(sc, op) })
	}
	return w
}

func (w *fzWorld) apply(sc fzScenario, op fop) {
	switch op.kind {
	case fopStart:
		f := &Flow{
			Name:   fmt.Sprintf("f%02d", len(w.started)),
			Volume: 4.0 * float64(1+int(op.a)%32),
			Usage:  map[*Resource]float64{},
		}
		if sc.shared {
			f.Usage[w.res[0]] = 1
		}
		for j := 0; j < len(w.res) && j < 8; j++ {
			if op.b>>uint(j)&1 == 1 {
				f.Usage[w.res[j]] = 0.25 * float64(1+(int(op.a)+j)%4)
			}
		}
		if len(f.Usage) == 0 {
			f.Usage[w.res[int(op.b)%len(w.res)]] = 1
		}
		if op.c%4 == 0 {
			f.Cap = 10.0 * float64(1+int(op.c)%16)
		}
		f.OnComplete = func(at simkernel.Time) {
			w.log = append(w.log, fmt.Sprintf("done %x %s", math.Float64bits(float64(at)), f.Name))
			for i := range f.uses {
				if f.uses[i].res.nActive > 0 {
					w.kept++
					break
				}
			}
		}
		f.OnAbort = func(at simkernel.Time) {
			w.log = append(w.log, fmt.Sprintf("abort %x %s %x", math.Float64bits(float64(at)), f.Name, math.Float64bits(f.Remaining())))
		}
		w.started = append(w.started, f)
		w.net.Start(f)
	case fopAbort:
		if len(w.started) == 0 {
			return
		}
		f := w.started[int(op.a)%len(w.started)]
		if f.inNet {
			w.net.Abort(f)
		}
	case fopSetCap:
		w.net.SetCapacity(w.res[int(op.a)%len(w.res)], 25.0*float64(int(op.b)%40))
	}
}

// verifyNet is the incremental-path oracle, run at instant boundaries
// (mid-instant, a dirty component's rates await the flush):
//
//  1. Membership: components must partition the active flows; each
//     component's registries must be sorted, mutually consistent and
//     refcount-correct; a non-stale component must be exactly one true
//     connected component of the flow↔resource graph (recomputed here from
//     scratch), and a stale one a disjoint union of true components.
//  2. Rates: re-running the retained reference solver on each component's
//     own flow/resource lists must reproduce the stored rates to 0 ULP —
//     the incremental bookkeeping may never change what gets solved.
//  3. Completion events: every in-flight flow's pending event must sit at
//     exactly the instant scheduleCompletion derives from its settled
//     volume and rate.
func verifyNet(t *testing.T, n *Network) {
	t.Helper()

	// Gather every in-flight flow from the component registries (the
	// network no longer keeps a global list).
	var allFlows []*Flow
	for _, c := range n.comps {
		allFlows = append(allFlows, c.flows...)
	}

	// Recompute true connectivity from scratch (union-find over resources,
	// joined through each active flow's usage vector).
	parent := map[*Resource]*Resource{}
	var find func(r *Resource) *Resource
	find = func(r *Resource) *Resource {
		p, ok := parent[r]
		if !ok || p == r {
			parent[r] = r
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	for _, f := range allFlows {
		r0 := find(f.uses[0].res)
		for i := 1; i < len(f.uses); i++ {
			parent[find(f.uses[i].res)] = r0
			r0 = find(r0)
		}
	}

	totalFlows := 0
	for _, c := range n.comps {
		totalFlows += len(c.flows)
		for i, f := range c.flows {
			if f.comp != c {
				t.Fatalf("flow %s in comp it does not point to", f.Name)
			}
			if i > 0 && !flowBefore(c.flows[i-1], f) {
				t.Fatalf("comp flow list out of order at %s", f.Name)
			}
		}
		roots := map[*Resource]bool{}
		for i, r := range c.resources {
			if r.comp != c {
				t.Fatalf("resource %s in comp it does not point to", r.Name)
			}
			if i > 0 && c.resources[i-1].idx >= r.idx {
				t.Fatalf("comp resource list out of idx order at %s", r.Name)
			}
			active := 0
			for _, f := range allFlows {
				if f.usesRes(r) {
					active++
				}
			}
			if r.nActive != active {
				t.Fatalf("resource %s nActive=%d, %d active flows use it", r.Name, r.nActive, active)
			}
			if active == 0 {
				t.Fatalf("resource %s registered with no active flow", r.Name)
			}
			// The per-resource user index must hold exactly the active
			// flows touching r, with the compiled weights and consistent
			// back-indices (the index itself is unordered).
			if len(r.users) != active {
				t.Fatalf("resource %s user index has %d entries, %d active flows use it", r.Name, len(r.users), active)
			}
			seen := make(map[*Flow]bool, len(r.users))
			for j := range r.users {
				u := r.users[j]
				if seen[u.f] {
					t.Fatalf("resource %s user index lists %s twice", r.Name, u.f.Name)
				}
				seen[u.f] = true
				if int(u.ui) >= len(u.f.uses) || u.f.uses[u.ui].res != r {
					t.Fatalf("resource %s user index back-link ui=%d for %s does not point at r", r.Name, u.ui, u.f.Name)
				}
				if u.f.uses[u.ui].upos != int32(j) {
					t.Fatalf("resource %s user %s has upos=%d, index position %d", r.Name, u.f.Name, u.f.uses[u.ui].upos, j)
				}
				if u.w != u.f.uses[u.ui].w {
					t.Fatalf("resource %s user index weight %v for %s, usage vector says %v", r.Name, u.w, u.f.Name, u.f.uses[u.ui].w)
				}
			}
			roots[find(r)] = true
		}
		if !c.stale && len(roots) != 1 {
			t.Fatalf("non-stale component spans %d true components", len(roots))
		}
		// Every flow's resources must stay inside this component.
		for _, f := range c.flows {
			for i := range f.uses {
				if f.uses[i].res.comp != c {
					t.Fatalf("flow %s uses resource outside its component", f.Name)
				}
			}
		}
	}
	if totalFlows != n.nActive {
		t.Fatalf("components hold %d flows, ActiveFlows says %d", totalFlows, n.nActive)
	}

	// Reference solve per component: 0 ULP against stored rates, then
	// completion events at exactly the derived instants.
	for _, c := range n.comps {
		want := make([]uint64, len(c.flows))
		for i, f := range c.flows {
			want[i] = math.Float64bits(f.rate)
		}
		solveReference(c.flows, c.resources)
		for i, f := range c.flows {
			if got := math.Float64bits(f.rate); got != want[i] {
				t.Fatalf("flow %s rate %x diverged from reference solve %x", f.Name, want[i], got)
			}
		}
		verifyKKT(t, c.flows, c.resources)
		for _, f := range c.flows {
			switch {
			case f.remaining <= 0:
				if f.event == nil || !f.event.Scheduled() || f.event.When() != f.settledAt {
					t.Fatalf("flow %s drained but completion not pending now", f.Name)
				}
			case f.rate <= 0:
				if f.event != nil && f.event.Scheduled() {
					t.Fatalf("flow %s stalled but still has a completion event", f.Name)
				}
			default:
				at := f.settledAt + simkernel.Time(f.remaining/f.rate)
				if f.event == nil || !f.event.Scheduled() {
					t.Fatalf("flow %s running without a completion event", f.Name)
				}
				if f.event.When() != at {
					t.Fatalf("flow %s completion at %v, settled state says %v", f.Name, f.event.When(), at)
				}
			}
		}
	}
}

// FuzzSolveLargeSingleComponent exercises the incremental solver at
// campaign scale, in its own target so its ~0.1-0.2 s executions never
// starve the cheap whole-script differential above. Each input drives
// 256-1024 flows all riding one shared resource (a single connected
// component, like every campaign via the client-stack ramp) plus
// per-group resources, with at most 32 distinct cap values so the pass
// count stays bounded. All flows start up front (cold solves over a
// growing set), then the run drains through completions — every other
// one a warm start — with deterministic mid-run aborts; verifyNet
// re-checks rates against the reference solver at 0 ULP at checkpoints,
// each taken at the first instant boundary after every nFlows/6
// completions.
func FuzzSolveLargeSingleComponent(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x03, 0x01, 0x07, 0x13, 0x2a, 0x05, 0x19, 0x40, 0x77, 0x02})
	f.Add([]byte{0x09, 0x01, 0x05, 0x02, 0x61, 0x0e, 0x55, 0x23, 0x31, 0x12, 0x43, 0x09, 0x28, 0x16})
	f.Add([]byte{0x11, 0x02, 0x01, 0x03, 0x66, 0x04, 0x39, 0x51, 0x7f, 0x20, 0x0b, 0x2d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		fzLargeSingleComponent(t, data)
	})
}

func fzLargeSingleComponent(t *testing.T, data []byte) {
	nFlows := 256 + int(data[1]%3)*384
	sim := simkernel.New()
	net := New(sim)
	shared := net.AddResource("ramp", 2000+100*float64(data[2]%8))
	nExtra := 8 + int(data[3]%4)
	extras := make([]*Resource, nExtra)
	for i := range extras {
		extras[i] = net.AddResource(fmt.Sprintf("x%02d", i), 100+25*float64(int(data[4+i%(len(data)-4)])%24))
	}
	flows := make([]*Flow, nFlows)
	completed := 0
	checkEvery := nFlows / 6
	checkDue := false
	for i := range flows {
		b := int(data[(5+i)%len(data)])
		f := &Flow{
			Name:   fmt.Sprintf("L%04d", i),
			Volume: 8 + float64(b%64),
			Usage: map[*Resource]float64{
				shared:           0.125,
				extras[i%nExtra]: 0.25 + 0.25*float64(b%4),
			},
		}
		if i%3 != 0 {
			f.Cap = 4 * float64(1+(i*7+b)%32)
		}
		f.OnComplete = func(simkernel.Time) {
			completed++
			if completed%checkEvery == 0 {
				checkDue = true
			}
		}
		flows[i] = f
		net.Start(f)
	}
	for {
		at, ok := sim.NextAt()
		if !ok {
			break
		}
		if err := sim.RunUntil(at); err != nil {
			t.Fatalf("large topology run: %v", err)
		}
		if at == 0 {
			verifyNet(t, net)
			continue
		}
		if !checkDue {
			continue
		}
		checkDue = false
		verifyNet(t, net)
		// Abort one survivor so the abort-side warm start runs at scale
		// too.
		for _, g := range flows {
			if g.inNet {
				net.Abort(g)
				break
			}
		}
	}
	for _, f := range flows {
		if f.inNet {
			t.Fatalf("flow %s still in flight after the queue drained", f.Name)
		}
	}
}

// decodeClusteredScenario is decodeScenario with event clustering: only
// about a quarter of the ops advance virtual time, so most land on the
// same instant as their predecessor — exactly the same-instant arrival/
// completion/capacity clusters the batched flush coalesces. Events that
// actually collide at one instant are what distinguishes the batched and
// event-at-a-time code paths; the spread-out decodeScenario script almost
// never produces them.
func decodeClusteredScenario(data []byte) fzScenario {
	r := &fzReader{data: data}
	var sc fzScenario
	nRes := 3 + int(r.byte()%6)
	sc.caps = make([]float64, nRes)
	for i := range sc.caps {
		sc.caps[i] = 25.0 * float64(1+int(r.byte()%40))
	}
	sc.shared = r.byte()&1 == 1
	t := simkernel.Time(0.25)
	for len(sc.ops) < 48 && !r.done() {
		if r.byte()%4 == 0 {
			t += simkernel.Time(0.25 + 0.25*float64(r.byte()%32))
		}
		k := r.byte() % 4
		op := fop{at: t}
		switch {
		case k <= 1:
			op.kind = fopStart
			op.a, op.b, op.c = r.byte(), r.byte(), r.byte()
		case k == 2:
			op.kind = fopAbort
			op.a = r.byte()
		default:
			op.kind = fopSetCap
			op.a, op.b = r.byte(), r.byte()
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// runInstantLockstep drives two worlds built from the same scenario one
// whole virtual instant at a time and compares the complete per-flow
// state — rate, lazily settled remaining volume, done/in-flight — at
// every instant boundary, with exact float bits. The two worlds may
// differ in intra-instant event cadence (that is the point: batching
// solves once per instant), but at each boundary they must agree to
// 0 ULP, including on when the next event fires at all.
func runInstantLockstep(t *testing.T, a, b *fzWorld, label string, checkB func()) {
	t.Helper()
	for {
		atA, okA := a.sim.NextAt()
		atB, okB := b.sim.NextAt()
		if okA != okB || (okA && math.Float64bits(float64(atA)) != math.Float64bits(float64(atB))) {
			t.Fatalf("%s: event queues desynchronized: next %v/%v vs %v/%v", label, atA, okA, atB, okB)
		}
		if !okA {
			return
		}
		if err := a.sim.RunUntil(atA); err != nil {
			t.Fatalf("%s: world A: %v", label, err)
		}
		if err := b.sim.RunUntil(atB); err != nil {
			t.Fatalf("%s: world B: %v", label, err)
		}
		for i, fa := range a.started {
			fb := b.started[i]
			if math.Float64bits(fa.Rate()) != math.Float64bits(fb.Rate()) ||
				math.Float64bits(fa.Remaining()) != math.Float64bits(fb.Remaining()) ||
				fa.Done() != fb.Done() || fa.inNet != fb.inNet {
				t.Fatalf("%s: flow %s diverged at t=%v: rate %x vs %x, remaining %x vs %x, done %v vs %v, inNet %v vs %v",
					label, fa.Name, atA,
					math.Float64bits(fa.Rate()), math.Float64bits(fb.Rate()),
					math.Float64bits(fa.Remaining()), math.Float64bits(fb.Remaining()),
					fa.Done(), fb.Done(), fa.inNet, fb.inNet)
			}
		}
		if checkB != nil {
			checkB()
		}
	}
}

// runVerified runs w to completion one virtual instant at a time and
// applies verifyNet at every instant boundary.
func runVerified(t *testing.T, w *fzWorld) {
	t.Helper()
	for {
		at, ok := w.sim.NextAt()
		if !ok {
			return
		}
		if err := w.sim.RunUntil(at); err != nil {
			t.Fatalf("run: %v", err)
		}
		verifyNet(t, w.net)
	}
}

// compareLogs demands byte-identical observable logs and final per-flow
// state from two worlds that ran the same script with the same event
// cadence.
func compareLogs(t *testing.T, a, b *fzWorld, nameA, nameB string) {
	t.Helper()
	if len(a.log) != len(b.log) {
		t.Fatalf("%s log has %d entries, %s %d\n%s: %v\n%s: %v",
			nameA, len(a.log), nameB, len(b.log), nameA, a.log, nameB, b.log)
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("logs diverge at %d: %s %q, %s %q", i, nameA, a.log[i], nameB, b.log[i])
		}
	}
	for i, fa := range a.started {
		fb := b.started[i]
		if math.Float64bits(fa.Rate()) != math.Float64bits(fb.Rate()) ||
			math.Float64bits(fa.Remaining()) != math.Float64bits(fb.Remaining()) ||
			fa.Done() != fb.Done() {
			t.Fatalf("flow %s final state diverged: rate %v vs %v, remaining %v vs %v, done %v vs %v",
				fa.Name, fa.Rate(), fb.Rate(), fa.Remaining(), fb.Remaining(), fa.Done(), fb.Done())
		}
	}
}

// burstSeedsClustered are decodeClusteredScenario inputs (after the
// worker byte) built around same-instant completion bursts: equal-volume
// flows sharing a resource at rates and volumes that drain them to exactly
// zero together, so the flush drains each burst without re-solving.
var burstSeedsClustered = [][]byte{
	// Seven 100 MiB flows on r0 (200 MiB/s) beside a 128 MiB survivor
	// that also crosses r1: seven completions at t=4.25, one solve.
	{0x00, 0x00, 0x07, 0x03, 0x01, 0x01,
		0x01, 0x00, 0x18, 0x00, 0x01, 0x01, 0x00, 0x18, 0x00, 0x01,
		0x01, 0x00, 0x18, 0x00, 0x01, 0x01, 0x00, 0x18, 0x00, 0x01,
		0x01, 0x00, 0x18, 0x00, 0x01, 0x01, 0x00, 0x18, 0x00, 0x01,
		0x01, 0x00, 0x18, 0x00, 0x01, 0x01, 0x00, 0x1f, 0x02, 0x01},
	// Two components bursting at t=1.25 in the same flush: eight flows
	// on r0, one of which also crosses r1 with a capped survivor, and
	// four flows on r3. A flow starts on r1 at the burst instant, and r1's
	// capacity changes at t=2.
	{0x01, 0x01, 0x07, 0x03, 0x07, 0x0f, 0x00,
		0x01, 0x00, 0x18, 0x01, 0x01, 0x01, 0x00, 0x18, 0x01, 0x01,
		0x01, 0x00, 0x18, 0x01, 0x01, 0x01, 0x00, 0x18, 0x01, 0x01,
		0x01, 0x00, 0x18, 0x01, 0x01, 0x01, 0x00, 0x18, 0x01, 0x01,
		0x01, 0x00, 0x18, 0x01, 0x01, 0x01, 0x00, 0x18, 0x03, 0x01,
		0x01, 0x00, 0x1f, 0x02, 0x04,
		0x01, 0x00, 0x18, 0x08, 0x01, 0x01, 0x00, 0x18, 0x08, 0x01,
		0x01, 0x00, 0x18, 0x08, 0x01, 0x01, 0x00, 0x18, 0x08, 0x01,
		0x00, 0x03, 0x00, 0x1f, 0x02, 0x01,
		0x00, 0x02, 0x03, 0x01, 0x05},
}

// burstSeedsSpread are decodeScenario inputs with a completion burst.
// Every op of that decoder advances time, so the burst comes from history:
// a capped 128 MiB survivor starts at t=0.25, a 128 MiB flow at t=0.5,
// and a 28 MiB flow at t=1.5, when the second flow has exactly 28 MiB
// left; both then share r0 equally and drain together.
var burstSeedsSpread = [][]byte{
	{0x00, 0x05, 0x03, 0x01, 0x01,
		0x00, 0x00, 0x1f, 0x00, 0x04,
		0x00, 0x00, 0x1f, 0x00, 0x01,
		0x00, 0x03, 0x06, 0x00, 0x01},
}

// requireBurstDrained fails unless w's run drained at least one
// completion burst without re-solving: fewer completion-triggered solves
// than completions that left their component non-empty. A burst seed that
// no longer produces one would leave the drain path unchecked.
func requireBurstDrained(t *testing.T, w *fzWorld, label string) {
	t.Helper()
	if got := w.st.Solves[TriggerComplete]; got >= w.kept {
		t.Fatalf("%s: burst seed ran %d completion-triggered solves for %d completions leaving flows behind; the drain path was not exercised", label, got, w.kept)
	}
}

// FuzzBatchedVsSequentialEvents drives same-instant event clusters
// through the batched event path twice: with the sequential one-worker
// flush and with a fuzzed flush worker count. At every instant boundary
// the two worlds must agree on full flow state at 0 ULP, and verifyNet
// re-checks both against the retained reference oracle — rates to 0 ULP,
// KKT optimality, completion events at exactly the derived instants. The
// worlds share the same event cadence, so their complete observable logs
// — every rate change, completion and abort, float bits spelled out —
// must also be byte-identical: the component-id-ordered merge makes
// worker count invisible.
func FuzzBatchedVsSequentialEvents(f *testing.F) {
	f.Add([]byte{0x03, 0x10, 0x20, 0x30, 0x01, 0x00, 0x00, 0x04, 0x40, 0x07, 0x00, 0x02, 0x00, 0x00, 0x06, 0x81, 0x05})
	f.Add([]byte{0x05, 0x08, 0x18, 0x28, 0x38, 0x48, 0x01, 0x00, 0x01, 0x03, 0x22, 0x33, 0x00, 0x44, 0x02, 0x05, 0x07, 0x00, 0x03, 0x06, 0x11})
	f.Add([]byte{0xa1, 0x33, 0x07, 0x1f, 0x40, 0x00, 0x00, 0x00, 0x51, 0x2a, 0x00, 0x00, 0x62, 0x0d, 0x00, 0x00, 0x73, 0x18, 0x04, 0x00, 0x09})
	for _, seed := range burstSeedsClustered {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sc := decodeClusteredScenario(data[1:])
		if len(sc.ops) == 0 {
			return
		}
		workers := 2 + int(data[0]%3)
		seq := buildWorld(sc, false, 1)
		par := buildWorld(sc, false, workers)
		runInstantLockstep(t, seq, par, "1 vs N flush workers", func() {
			verifyNet(t, seq.net)
			verifyNet(t, par.net)
		})
		compareLogs(t, seq, par, "1-worker", fmt.Sprintf("%d-worker", workers))
		if isSeed(burstSeedsClustered, data) {
			requireBurstDrained(t, seq, "1-worker")
			requireBurstDrained(t, par, fmt.Sprintf("%d-worker", workers))
		}
	})
}

// isSeed reports whether data is one of seeds.
func isSeed(seeds [][]byte, data []byte) bool {
	return slices.ContainsFunc(seeds, func(s []byte) bool { return bytes.Equal(s, data) })
}

// FuzzIncrementalVsGlobalSolve drives random topologies through random
// start/abort/SetCapacity scripts and checks the incremental
// component-scoped engine two ways. Always: at every instant boundary,
// component membership is re-derived from scratch and each component's
// rates and completion events are re-checked against the retained
// reference solver (0 ULP). When the decoded scenario routes every flow
// through a shared resource (one connected component — the shape every
// campaign has, via the client stack ramp), the same script also runs on
// a forceGlobal twin network that keeps every flow in one global
// component, and the two worlds' full observable logs — every rate
// change, completion and abort, with exact float bits — must be identical.
func FuzzIncrementalVsGlobalSolve(f *testing.F) {
	f.Add([]byte{0x03, 0x10, 0x20, 0x30, 0x01, 0x00, 0x04, 0x40, 0x07, 0x02, 0x00, 0x06, 0x81, 0x05})
	f.Add([]byte{0x05, 0x08, 0x18, 0x28, 0x38, 0x48, 0x00, 0x01, 0x03, 0x22, 0x33, 0x44, 0x02, 0x05, 0x07, 0x03, 0x06, 0x11})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00})
	f.Add([]byte{0x04, 0x01, 0x02, 0x03, 0x04, 0x05, 0x01, 0x01, 0x10, 0x03, 0x01, 0x01, 0x20, 0x0c, 0x01, 0x01, 0x30, 0x30, 0x02, 0x01, 0x00})
	for _, seed := range burstSeedsSpread {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(data)
		if len(sc.ops) == 0 {
			return
		}
		burst := isSeed(burstSeedsSpread, data)
		inc := buildWorld(sc, false, 1)
		runVerified(t, inc)
		if burst {
			requireBurstDrained(t, inc, "incremental")
		}
		if !sc.shared {
			return
		}
		ref := buildWorld(sc, true, 1)
		if err := ref.sim.Run(); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		compareLogs(t, inc, ref, "incremental", "global reference")
		if burst {
			requireBurstDrained(t, ref, "global reference")
		}
	})
}
