// Package cluster provides platform presets: ready-to-deploy topologies
// matching the paper's two PlaFRIM scenarios, and a generic builder for
// applying the same methodology to other systems (the paper's §VI future
// work).
//
// Scenario 1 connects compute nodes and storage hosts over 10 Gbit/s
// Ethernet — the network is slower than the storage, so OST *placement*
// dominates (Figures 6a, 8). Scenario 2 uses the 100 Gbit/s Omnipath — the
// storage is the bottleneck, so OST *count* dominates (Figures 6b, 10).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/beegfs"
	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/simnet"
	"repro/internal/storagesim"
)

// Scenario selects the network fabric of the PlaFRIM presets.
type Scenario int

const (
	// Scenario1Ethernet is the 10 GbE configuration: network-limited.
	Scenario1Ethernet Scenario = 1
	// Scenario2Omnipath is the 100 Gbit Omnipath configuration:
	// storage-limited.
	Scenario2Omnipath Scenario = 2
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Scenario1Ethernet:
		return "scenario1-ethernet"
	case Scenario2Omnipath:
		return "scenario2-omnipath"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// Protocol efficiency: the paper's measured scenario-1 peak is ~2200 MiB/s
// over two 1250 MiB/s links, i.e. ~88% of raw line rate — typical TCP/IP +
// BeeGFS framing overhead. We apply it directly to link capacities.
const protocolEfficiency = 0.88

// Raw line rates in MiB/s.
const (
	ethernetLineRate = 1250  // 10 Gbit/s
	omnipathLineRate = 12500 // 100 Gbit/s
)

// Platform is a deployable description of a system: the BeeGFS
// configuration plus the compute-side network properties.
type Platform struct {
	Name string
	// FS is the file-system/storage configuration.
	FS beegfs.Config
	// ClientNICCapacity is each compute node's link capacity in MiB/s
	// (after protocol efficiency). Zero = unconstrained.
	ClientNICCapacity float64
	// ServerNICJitterCV adds per-run lognormal jitter to the storage
	// hosts' NIC capacities (transient network events, §III-C item ii).
	ServerNICJitterCV float64
	// SetupMean and SetupCV parameterize the per-run setup overhead
	// (file create, connection establishment, first-write warmup) in
	// seconds. This drives the small-data-size penalty of Figure 2.
	SetupMean float64
	SetupCV   float64
}

// PlaFRIM returns the Bora + BeeGFS 7.2.3 platform of the paper in the
// given network scenario, with the device model calibrated per DESIGN.md
// §3. The chooser is PlaFRIM's rotating round-robin; replace FS.Chooser to
// study alternatives (Figure 6a discussion, ablation benches).
func PlaFRIM(s Scenario) Platform {
	fs := beegfs.Config{
		Storage:        storagesim.PlaFRIMConfig(),
		Hosts:          2,
		TargetsPerHost: 4,
		DefaultPattern: beegfs.StripePattern{Count: 4, ChunkSize: 512 * beegfs.KiB},
		Chooser:        &beegfs.RoundRobinChooser{},
		CreateLatency:  0.02,
		OpenLatency:    0.005,
		PpnSat:         8,
		// Client retry policy under fault injection: first re-issue after
		// 0.5 s of virtual time, then capped exponential backoff, up to 8
		// attempts (~65 s budget — outlasts transient outages, fails fast
		// on permanent ones).
		RetryTimeout:     0.5,
		RetryBackoffBase: 0.5,
		RetryMax:         8,
	}
	p := Platform{
		FS:                fs,
		ServerNICJitterCV: 0.02,
		SetupMean:         0.15,
		SetupCV:           0.5,
	}
	switch s {
	case Scenario1Ethernet:
		p.Name = "plafrim-scenario1"
		p.FS.ServerNICCapacity = ethernetLineRate * protocolEfficiency
		p.ClientNICCapacity = ethernetLineRate * protocolEfficiency
		// Client/TCP-stack ramp fitted to Figure 4a: one node reaches
		// ~880 MiB/s; the plateau (~1460) arrives around 4 nodes.
		p.FS.ClientA = 880
		p.FS.ClientGamma = 0.45
	case Scenario2Omnipath:
		p.Name = "plafrim-scenario2"
		p.FS.ServerNICCapacity = omnipathLineRate * protocolEfficiency
		p.ClientNICCapacity = omnipathLineRate * protocolEfficiency
		// Client ramp fitted to Figure 4b: one node reaches ~1631 MiB/s,
		// and the aggregate grows as 1631·N^0.45 until a stripe count's
		// storage ceiling is hit — which is what makes higher stripe
		// counts need more nodes (Figure 11, lesson 6). ppn=16 pays a
		// small intra-node contention penalty (Figure 5b).
		p.FS.ClientA = 1631
		p.FS.ClientGamma = 0.45
		p.FS.IntraNodePenalty = 0.1
	default:
		panic(fmt.Sprintf("cluster: unknown scenario %d", s))
	}
	return p
}

// ShapeError reports an invalid topology dimension passed to a platform
// builder (Custom, FatTree). Builders return it instead of panicking so
// CLIs and spec files can tell the user which dimension was wrong.
type ShapeError struct {
	// Builder is the platform builder that rejected the shape.
	Builder string
	// Field is the offending dimension and Value its rejected value.
	Field string
	Value float64
}

// Error implements error.
func (e *ShapeError) Error() string {
	return fmt.Sprintf("cluster: %s: %s = %g is out of range", e.Builder, e.Field, e.Value)
}

// checkShape validates the dimensions common to all platform builders.
// Rates are rejected when non-positive or non-finite: NaN passes a plain
// `<= 0` check and would deploy a platform whose flows run at rate NaN
// and never complete.
func checkShape(builder string, nHosts, targetsPerHost int, linkRate float64, chooser beegfs.TargetChooser) error {
	switch {
	case nHosts <= 0:
		return &ShapeError{Builder: builder, Field: "hosts", Value: float64(nHosts)}
	case targetsPerHost <= 0:
		return &ShapeError{Builder: builder, Field: "targets per host", Value: float64(targetsPerHost)}
	case !positiveRate(linkRate):
		return &ShapeError{Builder: builder, Field: "link rate", Value: linkRate}
	case chooser == nil:
		return &ShapeError{Builder: builder, Field: "chooser", Value: 0}
	}
	return nil
}

// positiveRate reports whether v is a usable capacity: positive and
// finite.
func positiveRate(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Custom builds a platform for an arbitrary deployment: nHosts storage
// hosts with targetsPerHost OSTs each, and symmetric client/server links
// of linkRate MiB/s (raw; protocol efficiency is applied). The storage
// device model reuses the PlaFRIM calibration. Used by
// examples/customplatform to exercise the paper's methodology elsewhere.
// An out-of-range shape returns a *ShapeError instead of deploying a
// platform that would only fail (or panic) later.
func Custom(name string, nHosts, targetsPerHost int, linkRate float64, chooser beegfs.TargetChooser) (Platform, error) {
	if err := checkShape("Custom", nHosts, targetsPerHost, linkRate, chooser); err != nil {
		return Platform{}, err
	}
	fs := beegfs.Config{
		Storage:           storagesim.PlaFRIMConfig(),
		Hosts:             nHosts,
		TargetsPerHost:    targetsPerHost,
		DefaultPattern:    beegfs.StripePattern{Count: 4, ChunkSize: 512 * beegfs.KiB},
		Chooser:           chooser,
		CreateLatency:     0.02,
		OpenLatency:       0.005,
		PpnSat:            8,
		ServerNICCapacity: linkRate * protocolEfficiency,
		RetryTimeout:      0.5,
		RetryBackoffBase:  0.5,
		RetryMax:          8,
	}
	if fs.DefaultPattern.Count > nHosts*targetsPerHost {
		fs.DefaultPattern.Count = nHosts * targetsPerHost
	}
	return Platform{
		Name:              name,
		FS:                fs,
		ClientNICCapacity: linkRate * protocolEfficiency,
		ServerNICJitterCV: 0.02,
		SetupMean:         0.25,
		SetupCV:           0.4,
	}, nil
}

// Deployment is a live simulated instance of a platform: a simulation
// clock, a flow network, a mounted file system and a pool of compute
// nodes.
type Deployment struct {
	Platform Platform
	Sim      *simkernel.Simulation
	Net      *simnet.Network
	FS       *beegfs.FileSystem

	clients []*beegfs.Client
	// rackClients pools the rack-placed nodes of NodesInRack.
	rackClients map[int][]*beegfs.Client
	// base capacities for jitter restoration
	serverNICBase float64
}

// Deploy instantiates the platform. Its network solves same-instant
// events at most once per dirty component per flush wave, with a serial
// flush; campaigns widen the flush with Net.SetFlushWorkers.
func (p Platform) Deploy() (*Deployment, error) {
	sim := simkernel.New()
	net := simnet.New(sim)
	fs, err := beegfs.New(sim, net, p.FS)
	if err != nil {
		return nil, err
	}
	// Declare the fabric aggregates (rack uplinks, core switch, client
	// ramp) as separators up front. The declaration is inert until a
	// campaign opts into simnet.SetHierarchical, so every existing
	// deployment is byte-identical with or without it.
	if seps := fs.SeparatorResources(); len(seps) > 0 {
		net.SetSeparators(seps...)
	}
	return &Deployment{
		Platform:      p,
		Sim:           sim,
		Net:           net,
		FS:            fs,
		serverNICBase: p.FS.ServerNICCapacity,
	}, nil
}

// Nodes returns n compute nodes, creating them on first use so that NIC
// resources persist across repetitions.
func (d *Deployment) Nodes(n int) []*beegfs.Client {
	for len(d.clients) < n {
		name := fmt.Sprintf("node%03d", len(d.clients)+1)
		d.clients = append(d.clients, d.FS.NewClient(name, d.Platform.ClientNICCapacity))
	}
	return d.clients[:n]
}

// ReJitter redraws the per-run variability: storage device multipliers and
// (optionally) server NIC capacities. The experiment protocol calls it
// before every repetition.
func (d *Deployment) ReJitter(src *rng.Source) {
	d.FS.Storage().ReJitter(src)
	if d.serverNICBase > 0 && d.Platform.ServerNICJitterCV > 0 {
		for _, h := range d.FS.Storage().Hosts() {
			if d.FS.NICDown(h) {
				// A failed link stays at zero capacity; the jitter draw is
				// still consumed so the rng stream (and hence determinism)
				// does not depend on fault timing.
				src.LogNormal(1, d.Platform.ServerNICJitterCV)
				continue
			}
			if nic := d.FS.ServerNIC(h); nic != nil {
				c := d.serverNICBase * src.LogNormal(1, d.Platform.ServerNICJitterCV)
				// A fail-slow pin survives re-jittering: the link keeps its
				// degraded fraction of whatever capacity was drawn.
				if f := d.FS.NICSlowFactor(h); f != 1 {
					c *= f
				}
				d.Net.SetCapacity(nic, c)
			}
		}
	}
}

// ResetJitter restores deterministic capacities.
func (d *Deployment) ResetJitter() {
	d.FS.Storage().ResetJitter()
	if d.serverNICBase > 0 {
		for _, h := range d.FS.Storage().Hosts() {
			if d.FS.NICDown(h) {
				continue
			}
			if nic := d.FS.ServerNIC(h); nic != nil {
				c := d.serverNICBase
				if f := d.FS.NICSlowFactor(h); f != 1 {
					c *= f
				}
				d.Net.SetCapacity(nic, c)
			}
		}
	}
}
