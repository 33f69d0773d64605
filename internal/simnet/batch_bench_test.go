package simnet

import (
	"fmt"
	"testing"

	"repro/internal/simkernel"
)

// manyCompNet builds comps disjoint 4-flow components (one shared
// resource plus a private one per flow, infinite volumes) with a serial
// flush, warmed so steady-state flushes do not allocate.
func manyCompNet(comps int) (*simkernel.Simulation, *Network, []*Resource) {
	sim := simkernel.New()
	net := New(sim)
	shared := make([]*Resource, comps)
	for c := range shared {
		shared[c] = net.AddResource(fmt.Sprintf("g%03d/s", c), 200+float64(c%7)*50)
		for i := 0; i < 4; i++ {
			own := net.AddResource(fmt.Sprintf("g%03d/n%d", c, i), 80+float64(i)*10)
			net.Start(&Flow{
				Name:   fmt.Sprintf("g%03d/f%d", c, i),
				Volume: 1e15,
				Usage:  map[*Resource]float64{shared[c]: 1, own: 1},
			})
		}
	}
	drainInstant(sim)
	return sim, net, shared
}

// drainInstant fires only the events pending at the current instant (the
// batched flush wave and its cascades), leaving the flows' far-future
// completion events queued — virtual time must not advance, or the
// long-running flows would complete and later iterations would measure
// empty components.
func drainInstant(sim *simkernel.Simulation) {
	sim.RunUntil(sim.Now())
}

// benchmarkSolveManyComponents measures one full batched flush wave:
// every component dirtied by a capacity event at the same instant, then a
// single flush solving them all in component-id order. This is the
// per-instant cost the parallel flush divides.
func benchmarkSolveManyComponents(b *testing.B, comps int) {
	sim, net, shared := manyCompNet(comps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 500.0
		if i&1 == 0 {
			v = 700
		}
		for _, r := range shared {
			net.SetCapacity(r, v)
		}
		drainInstant(sim)
	}
}

func BenchmarkSolveManyComponents64(b *testing.B)  { benchmarkSolveManyComponents(b, 64) }
func BenchmarkSolveManyComponents256(b *testing.B) { benchmarkSolveManyComponents(b, 256) }

// benchmarkEventBatchRamp measures the storm same-instant batching
// collapses: 64 same-instant flow starts on one shared ramp resource cost
// one solve of the ramp component, not one per start. Each iteration
// starts the wave, drains, aborts it and drains again.
func benchmarkEventBatchRamp(b *testing.B) {
	const clients = 64
	sim := simkernel.New()
	net := New(sim)
	ramp := net.AddResource("ramp", 1000)
	own := make([]*Resource, clients)
	for i := range own {
		own[i] = net.AddResource(fmt.Sprintf("nic%03d", i), 40+float64(i%7)*5)
	}
	flows := make([]Flow, clients)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range flows {
			flows[c] = Flow{
				Name:   "f",
				Volume: 1e15,
				Usage:  map[*Resource]float64{ramp: 0.5, own[c]: 1},
			}
			net.Start(&flows[c])
		}
		drainInstant(sim)
		for c := range flows {
			net.Abort(&flows[c])
		}
		drainInstant(sim)
	}
}

func BenchmarkEventBatchRamp(b *testing.B) {
	b.Run("batched", benchmarkEventBatchRamp)
}

// benchmarkCompletionBurst measures a same-instant completion burst: k
// equal-volume flows on one link beside a long-running survivor, all
// draining at the same instant. Each iteration starts the burst, drains
// the start instant and then the burst instant. Rates and volumes are
// exact binary fractions, so every burst flow settles to exactly zero.
func benchmarkCompletionBurst(b *testing.B, k int) {
	sim := simkernel.New()
	net := New(sim)
	link := net.AddResource("link", 16*float64(k+1))
	net.Start(&Flow{Name: "survivor", Volume: 1e15, Usage: map[*Resource]float64{link: 1}})
	flows := make([]Flow, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range flows {
			flows[j] = Flow{Name: "burst", Volume: 16, Usage: map[*Resource]float64{link: 1}}
			net.Start(&flows[j])
		}
		drainInstant(sim)
		at, _ := sim.NextAt()
		sim.RunUntil(at)
	}
}

func BenchmarkCompletionBurst(b *testing.B) {
	b.Run("k=64", func(b *testing.B) { benchmarkCompletionBurst(b, 64) })
}
