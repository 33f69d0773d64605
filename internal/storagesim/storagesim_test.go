package storagesim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/simnet"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func newSys(t *testing.T, cfg Config, hosts, tph int) (*simkernel.Simulation, *simnet.Network, *System) {
	t.Helper()
	sim := simkernel.New()
	net := simnet.New(sim)
	sys, err := NewSystem(net, cfg, hosts, tph)
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, sys
}

func detConfig() Config {
	return Config{SingleTargetRate: 1764, Beta: 0.596}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"plafrim", PlaFRIMConfig(), true},
		{"zero rate", Config{Beta: 0.5}, false},
		{"beta zero", Config{SingleTargetRate: 1, Beta: 0}, false},
		{"beta above one", Config{SingleTargetRate: 1, Beta: 1.5}, false},
		{"beta one ok", Config{SingleTargetRate: 1, Beta: 1}, true},
		{"negative peak", Config{SingleTargetRate: 1, Beta: 1, TargetPeak: -1}, false},
		{"negative jitter", Config{SingleTargetRate: 1, Beta: 1, HostJitterCV: -0.1}, false},
		{"penalty above one", Config{SingleTargetRate: 1, Beta: 1, SharePenalty: 2}, false},
		{"penalty ok", Config{SingleTargetRate: 1, Beta: 1, SharePenalty: 0.9}, true},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewSystemLayout(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 2, 4)
	if len(sys.Hosts()) != 2 {
		t.Fatalf("hosts = %d", len(sys.Hosts()))
	}
	if len(sys.Targets()) != 8 {
		t.Fatalf("targets = %d", len(sys.Targets()))
	}
	// Paper-style IDs: 101..104, 201..204.
	wantIDs := []int{101, 102, 103, 104, 201, 202, 203, 204}
	for i, tgt := range sys.Targets() {
		if tgt.ID != wantIDs[i] {
			t.Fatalf("target[%d].ID = %d, want %d", i, tgt.ID, wantIDs[i])
		}
	}
	if sys.TargetByID(203) == nil || sys.TargetByID(999) != nil {
		t.Fatal("TargetByID lookup broken")
	}
}

func TestNewSystemRejectsBadShape(t *testing.T) {
	sim := simkernel.New()
	net := simnet.New(sim)
	if _, err := NewSystem(net, detConfig(), 0, 4); err == nil {
		t.Fatal("0 hosts accepted")
	}
	if _, err := NewSystem(net, detConfig(), 2, 0); err == nil {
		t.Fatal("0 targets accepted")
	}
	if _, err := NewSystem(net, Config{}, 2, 4); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestHostCapacityConcave(t *testing.T) {
	cfg := detConfig()
	c1 := cfg.HostCapacity(1)
	c4 := cfg.HostCapacity(4)
	if !almost(c1, 1764, 1e-9) {
		t.Fatalf("C(1) = %v, want 1764", c1)
	}
	// Calibration target: C(4) ~ 4032 so 2 hosts reach the paper's ~8064.
	if c4 < 3950 || c4 > 4120 {
		t.Fatalf("C(4) = %v, want ~4032", c4)
	}
	// Concavity: per-target capacity falls with m.
	for m := 1; m < 4; m++ {
		a := cfg.HostCapacity(m) / float64(m)
		b := cfg.HostCapacity(m+1) / float64(m+1)
		if b >= a {
			t.Fatalf("per-target capacity not decreasing: C(%d)/%d=%v vs C(%d)/%d=%v", m, m, a, m+1, m+1, b)
		}
	}
	if cfg.HostCapacity(0) != 0 {
		t.Fatal("C(0) != 0")
	}
}

func TestAcquireUpdatesControllerCapacity(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 2, 4)
	h := sys.Hosts()[0]
	t1, t2 := h.Targets()[0], h.Targets()[1]
	t1.Acquire("app", 1)
	if !almost(h.Controller().Capacity(), 1764, 1e-6) {
		t.Fatalf("C after 1 active = %v", h.Controller().Capacity())
	}
	t2.Acquire("app", 1)
	want := detConfig().HostCapacity(2)
	if !almost(h.Controller().Capacity(), want, 1e-6) {
		t.Fatalf("C after 2 active = %v, want %v", h.Controller().Capacity(), want)
	}
	t1.Release("app", 1)
	t2.Release("app", 1)
	if h.ActiveTargets() != 0 {
		t.Fatalf("active targets after release = %d", h.ActiveTargets())
	}
}

func TestAcquireSameTargetTwiceIsOneActive(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 4)
	h := sys.Hosts()[0]
	tg := h.Targets()[0]
	tg.Acquire("a", 1)
	tg.Acquire("a", 1)
	tg.Acquire("b", 1)
	if h.ActiveTargets() != 1 {
		t.Fatalf("ActiveTargets = %d, want 1", h.ActiveTargets())
	}
	if tg.Writers() != 2 {
		t.Fatalf("distinct writers = %d, want 2", tg.Writers())
	}
	tg.Release("a", 1)
	if tg.Writers() != 2 {
		t.Fatalf("writers after partial release = %d, want 2", tg.Writers())
	}
	tg.Release("a", 1)
	if tg.Writers() != 1 {
		t.Fatalf("writers = %d, want 1", tg.Writers())
	}
	tg.Release("b", 1)
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release did not panic")
		}
	}()
	sys.Targets()[0].Release("ghost", 1)
}

func TestSharePenaltyDisabledByDefault(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 1)
	tg := sys.Targets()[0]
	tg.Acquire("a", 1)
	before := tg.Resource().Capacity()
	tg.Acquire("b", 1)
	if tg.Resource().Capacity() != before {
		t.Fatal("capacity changed on sharing although SharePenalty = 0")
	}
	tg.Release("a", 1)
	tg.Release("b", 1)
}

func TestSharePenaltyAblation(t *testing.T) {
	cfg := detConfig()
	cfg.SharePenalty = 0.8
	_, _, sys := newSys(t, cfg, 1, 1)
	tg := sys.Targets()[0]
	tg.Acquire("a", 1)
	c1 := tg.Resource().Capacity()
	tg.Acquire("b", 1)
	if !almost(tg.Resource().Capacity(), 0.8*c1, 1e-9) {
		t.Fatalf("2 sharers: %v, want %v", tg.Resource().Capacity(), 0.8*c1)
	}
	tg.Acquire("c", 1)
	if !almost(tg.Resource().Capacity(), 0.64*c1, 1e-9) {
		t.Fatalf("3 sharers: %v, want %v", tg.Resource().Capacity(), 0.64*c1)
	}
	tg.Release("c", 1)
	if !almost(tg.Resource().Capacity(), 0.8*c1, 1e-9) {
		t.Fatal("penalty did not relax on release")
	}
	tg.Release("b", 1)
	tg.Release("a", 1)
}

func TestReJitterStatistics(t *testing.T) {
	cfg := detConfig()
	cfg.HostJitterCV = 0.08
	cfg.TargetJitterCV = 0.04
	_, _, sys := newSys(t, cfg, 2, 4)
	tg := sys.Targets()[0]
	tg.Acquire("a", 1)
	src := rng.New(42)
	var caps []float64
	for i := 0; i < 3000; i++ {
		sys.ReJitter(src)
		caps = append(caps, tg.Resource().Capacity())
	}
	mean, sd := meanSD(caps)
	if math.Abs(mean-1764)/1764 > 0.02 {
		t.Fatalf("jittered target capacity mean = %v, want ~1764", mean)
	}
	if sd/mean < 0.02 || sd/mean > 0.06 {
		t.Fatalf("target capacity cv = %v, want ~0.04", sd/mean)
	}
	tg.Release("a", 1)
}

func TestReJitterCorrelatedWithinHost(t *testing.T) {
	// Host jitter moves the controller; two samples of the controller
	// capacity with the same active set must vary run to run.
	cfg := detConfig()
	cfg.HostJitterCV = 0.1
	_, _, sys := newSys(t, cfg, 1, 2)
	h := sys.Hosts()[0]
	h.Targets()[0].Acquire("a", 1)
	src := rng.New(7)
	sys.ReJitter(src)
	c1 := h.Controller().Capacity()
	sys.ReJitter(src)
	c2 := h.Controller().Capacity()
	if c1 == c2 {
		t.Fatal("controller capacity did not vary across ReJitter")
	}
	h.Targets()[0].Release("a", 1)
}

func TestResetJitter(t *testing.T) {
	cfg := detConfig()
	cfg.HostJitterCV = 0.1
	cfg.TargetJitterCV = 0.1
	_, _, sys := newSys(t, cfg, 2, 4)
	tg := sys.Targets()[3]
	tg.Acquire("a", 1)
	sys.ReJitter(rng.New(1))
	sys.ResetJitter()
	if !almost(tg.Resource().Capacity(), 1764, 1e-9) {
		t.Fatalf("capacity after reset = %v, want 1764", tg.Resource().Capacity())
	}
	if !almost(tg.Host().Controller().Capacity(), 1764, 1e-9) {
		t.Fatalf("controller after reset = %v", tg.Host().Controller().Capacity())
	}
	tg.Release("a", 1)
}

// End-to-end: a flow writing through one target is limited by the target,
// and 4 concurrent targets on one host are limited by the concave
// controller.
func TestFlowsThroughStorage(t *testing.T) {
	sim, net, sys := newSys(t, detConfig(), 1, 4)
	h := sys.Hosts()[0]
	var flows []*simnet.Flow
	for i, tg := range h.Targets() {
		tg.Acquire("app", 1)
		f := &simnet.Flow{
			Name:   string(rune('a' + i)),
			Volume: 1e9, // long-lived so the steady rate is observable
			Usage: map[*simnet.Resource]float64{
				tg.Resource():  1,
				h.Controller(): 1,
			},
		}
		net.Start(f)
		flows = append(flows, f)
	}
	// With all 4 targets active the controller is at C(4); each flow gets
	// an equal share C(4)/4 (< per-target peak, so the controller binds).
	if err := sim.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	want := detConfig().HostCapacity(4) / 4
	for i, f := range flows {
		if !almost(f.Rate(), want, 1e-6) {
			t.Fatalf("flow %d rate = %v, want %v", i, f.Rate(), want)
		}
	}
	// A single flow alone would instead be limited by its target's peak.
	if want >= detConfig().SingleTargetRate {
		t.Fatal("test assumption broken: controller share should be below target peak")
	}
}

// Property: controller capacity is monotone nondecreasing in the number of
// active targets and never exceeds m * TargetPeak.
func TestPropertyControllerMonotone(t *testing.T) {
	check := func(rateSeed uint16, betaSeed uint8) bool {
		rate := 100 + float64(rateSeed%2000)
		beta := 0.2 + 0.8*float64(betaSeed%100)/100
		if beta > 1 {
			beta = 1
		}
		cfg := Config{SingleTargetRate: rate, Beta: beta}
		prev := 0.0
		for m := 1; m <= 8; m++ {
			c := cfg.HostCapacity(m)
			if c < prev {
				return false
			}
			if c > rate*float64(m)+1e-9 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func meanSD(xs []float64) (float64, float64) {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	m := sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return m, math.Sqrt(ss / float64(len(xs)-1))
}

func TestSaturationRamp(t *testing.T) {
	cfg := detConfig()
	cfg.SatHalf = 16
	_, _, sys := newSys(t, cfg, 1, 1)
	tg := sys.Targets()[0]
	tg.Acquire("a", 16)
	// c = SatHalf -> half of peak.
	if !almost(tg.Resource().Capacity(), 1764/2, 1e-6) {
		t.Fatalf("capacity at half-saturation = %v, want %v", tg.Resource().Capacity(), 1764.0/2)
	}
	tg.Acquire("a", 48) // total depth 64 -> 64/80 = 0.8 of peak
	if !almost(tg.Resource().Capacity(), 1764*0.8, 1e-6) {
		t.Fatalf("capacity at depth 64 = %v, want %v", tg.Resource().Capacity(), 1764*0.8)
	}
	tg.Release("a", 48)
	if !almost(tg.Resource().Capacity(), 1764/2, 1e-6) {
		t.Fatal("saturation did not relax on release")
	}
	tg.Release("a", 16)
	if tg.WriteDepth() != 0 {
		t.Fatalf("residual depth %v after full release", tg.WriteDepth())
	}
}

func TestSaturationDisabledByDefault(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 1)
	tg := sys.Targets()[0]
	tg.Acquire("a", 0.001)
	if !almost(tg.Resource().Capacity(), 1764, 1e-9) {
		t.Fatalf("capacity with SatHalf=0 = %v, want peak", tg.Resource().Capacity())
	}
	tg.Release("a", 0.001)
}

func TestNegativeDepthPanics(t *testing.T) {
	_, _, sys := newSys(t, detConfig(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative depth accepted")
		}
	}()
	sys.Targets()[0].Acquire("a", -1)
}

// SetFailed pins the component's capacity to zero and the zero survives
// writer-count and jitter recomputations until recovery.
func TestSetFailedPinsCapacityToZero(t *testing.T) {
	_, net, sys := newSys(t, detConfig(), 2, 4)
	tg := sys.Targets()[0]
	h := tg.Host()

	tg.SetFailed(true)
	if !tg.Failed() || tg.Resource().Capacity() != 0 {
		t.Fatal("failed target has capacity")
	}
	// Writer churn and jitter must not resurrect the capacity.
	tg.Acquire("app", 1)
	sys.ReJitter(rng.New(7))
	if tg.Resource().Capacity() != 0 {
		t.Fatal("failed target capacity resurrected")
	}
	tg.Release("app", 1)
	tg.SetFailed(false)
	if tg.Resource().Capacity() <= 0 {
		t.Fatal("recovered target still at zero")
	}

	h.SetFailed(true)
	if !h.Failed() || h.Controller().Capacity() != 0 {
		t.Fatal("failed host has controller capacity")
	}
	sys.ResetJitter()
	if h.Controller().Capacity() != 0 {
		t.Fatal("failed host capacity resurrected by ResetJitter")
	}
	h.SetFailed(false)
	if h.Controller().Capacity() <= 0 {
		t.Fatal("recovered host still at zero")
	}
	_ = net
}
