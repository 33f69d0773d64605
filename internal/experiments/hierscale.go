// Hierarchical-solver scale campaign: the job churn of scale.go moved onto
// the over-subscribed FatTreeCore fabric, where cross-rack "drain" traffic
// through a shared core switch fuses every rack into one connected flow
// component — the worst case for the flat waterfill and the regime the
// hierarchical solver decomposes. Each topology runs three times on the
// identical workload: flat (batched solver, PR 7 baseline), hier-exact
// (partitioned solve, bit-identical contract) and hier-approx
// (bounded-error coordination, measured residual must stay within the
// bound). Like ExtScale the campaign is an experiment and a differential
// test at once: flat vs hier-exact extends the fuzzer's 0-ULP oracle to
// whole campaigns, and hier-approx turns Stats.HierMaxRelErr from a
// counter into an enforced acceptance criterion.
package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simkernel"
	"repro/internal/stats"
	"repro/internal/storagesim"
)

const (
	// hierScaleWorkers is the hierarchical worker-pool width. Fixed (not
	// tied to Options.Workers) for the same reason as scaleBatchWorkers:
	// rows must be identical at any -workers setting. Eight matches the
	// BenchmarkScaleChurn10k speedup target cell.
	hierScaleWorkers = 8
	// hierScaleBound is the hier-approx mode's configured relative error
	// bound; the campaign fails if the measured residual ever exceeds it.
	hierScaleBound = 0.01
	// hierScaleMinFlows lowers the hierarchical engagement threshold so
	// the partitioned path runs even at the campaign's CI size (-reps 2
	// builds components of tens of flows, not the >=192 the perf-tuned
	// default waits for).
	hierScaleMinFlows = 8
)

// ExtHierScaleRow is one (topology, solver mode) cell of the campaign.
type ExtHierScaleRow struct {
	Topology string
	Mode     string // "flat", "hier-exact" or "hier-approx"
	Racks    int
	Targets  int
	// Jobs counts completed jobs (rack-local writers plus cross-rack
	// drains); bandwidth is per-job volume / makespan in MiB/s.
	Jobs      int
	BWMean    float64
	BWMin     float64
	BWMax     float64
	PeakFlows int
	Events    uint64
	Solves    uint64
	// HierSolves/HierFallbacks split the component solves that reached the
	// hierarchical path from those it declined (degenerate partition,
	// too-small component). Zero in flat mode.
	HierSolves    uint64
	HierFallbacks uint64
	// OuterRounds sums bounded-error coordination rounds;
	// ExactFallbacks counts bounded solves that hit the round cap without
	// converging and re-ran exactly; MaxRelErr is the campaign-wide
	// maximum measured residual (0 in flat and exact modes, <=
	// hierScaleBound in approx mode — enforced).
	OuterRounds    uint64
	ExactFallbacks uint64
	MaxRelErr      float64
	// Wall-clock measurements; excluded from Deterministic and the CSV.
	WallSec      float64
	EventsPerSec float64
	StepP50us    float64
	StepP99us    float64
}

// Deterministic returns the row with its wall-clock fields zeroed — the
// portion that must be bit-identical across -workers settings.
func (r ExtHierScaleRow) Deterministic() ExtHierScaleRow {
	r.WallSec, r.EventsPerSec, r.StepP50us, r.StepP99us = 0, 0, 0, 0
	return r
}

// hierScaleTopo is one FatTreeCore fabric size of the campaign.
type hierScaleTopo struct {
	name       string
	spec       cluster.FatTreeSpec
	jobsPerRep int
	meanGap    float64
	// nodesBase/nodesSpread draw each local job's node count as
	// base + Intn(spread); zero values default to 2 + Intn(3).
	nodesBase   int
	nodesSpread int
}

func hierScaleTopos(reps int) []hierScaleTopo {
	// CoreRate is left 0: FatTreeCore's default (a quarter of the racks'
	// aggregate uplink rate) is the over-subscription this campaign is
	// about.
	topos := []hierScaleTopo{{
		name: "core-small",
		spec: cluster.FatTreeSpec{
			Racks: 4, OSSPerRack: 2, TargetsPerOSS: 4,
			LinkRate: 2500, UplinkRate: 5000,
		},
		jobsPerRep: 12,
		meanGap:    0.1,
	}}
	if reps >= 20 {
		topos = append(topos, hierScaleTopo{
			name: "core-large",
			spec: cluster.FatTreeSpec{
				Racks: 8, OSSPerRack: 4, TargetsPerOSS: 8,
				LinkRate: 2500, UplinkRate: 10000,
			},
			jobsPerRep: 24,
			meanGap:    0.1,
		})
	}
	return topos
}

// hierScaleJob is one application of the churn. Local jobs are the
// scale.go shape: same-rack nodes writing a rack-locally striped file.
// Drain jobs model cross-rack consumers — an unplaced client with no NIC
// of its own (think: a node in a remote compute rack) writing two
// rack-locally striped files in two *different* racks at once, so every
// byte crosses a rack uplink and the shared core. Each file's stripes
// stay within one rack (a file striped across racks would permanently
// coarsen the solver's never-splitting partition), but the two flows
// share the core, so for the drain's lifetime the two racks fuse into one
// component the hierarchical solver must decompose.
type hierScaleJob struct {
	rack    int
	rack2   int // second rack of a drain pair
	drain   bool
	nodes   int
	ppn     int
	perNode float64 // MiB written by each node (per file for drains)
	startAt simkernel.Time
	pending int
}

// runHierScaleCell simulates one (topology, mode) cell. hierWorkers == 0
// is flat mode; otherwise SetHierarchical(hierWorkers, maxRelErr). The
// flush fans over scaleBatchWorkers goroutines; a flush holding a single
// fused component solves it serially and leaves the cores to the
// hierarchical solver's internal parallelism.
func runHierScaleCell(topo hierScaleTopo, mode string, hierWorkers int, maxRelErr float64, jobs int, seed uint64) (ExtHierScaleRow, error) {
	p, err := cluster.FatTreeCore("hierscale-"+topo.name, topo.spec)
	if err != nil {
		return ExtHierScaleRow{}, err
	}
	dep, err := p.Deploy()
	if err != nil {
		return ExtHierScaleRow{}, err
	}
	dep.Net.SetFlushWorkers(scaleBatchWorkers)
	if hierWorkers > 0 {
		dep.Net.SetHierarchical(hierWorkers, maxRelErr)
		dep.Net.SetHierarchicalMinFlows(hierScaleMinFlows)
	}
	// Pre-size the kernel's heap spine past the churn's high-water mark;
	// purely an allocation saving, invisible to results.
	dep.Sim.Reserve(4096)
	st := dep.EnableStats()

	racks := dep.FS.Racks()
	rackTargets := make([][]*storagesim.Target, racks)
	for _, tg := range dep.FS.Mgmtd().All() {
		r := dep.FS.RackOf(tg.Host())
		rackTargets[r] = append(rackTargets[r], tg)
	}
	cursor := make([]int, racks)
	pick := func(rack, width int) []*storagesim.Target {
		pool := rackTargets[rack]
		if width > len(pool) {
			width = len(pool)
		}
		out := make([]*storagesim.Target, width)
		for i := range out {
			out[i] = pool[(cursor[rack]+i)%len(pool)]
		}
		cursor[rack] = (cursor[rack] + width) % len(pool)
		return out
	}
	// Drain clients are created once and cycled; with no NIC resource they
	// add no edges of their own, so a drain flow's footprint is exactly
	// "one rack's storage + that uplink + the core".
	var drainClients []*beegfs.Client
	drainClient := func(i int) *beegfs.Client {
		for len(drainClients) <= i {
			drainClients = append(drainClients,
				dep.FS.NewClient(fmt.Sprintf("ext/drain%02d", len(drainClients)), 0))
		}
		return drainClients[i]
	}

	src := rng.New(seed)
	var (
		bws       []float64
		active    int
		peak      int
		submitted int
		jobSeq    int
	)
	startJob := func(job *hierScaleJob) error {
		// One file shared by the job's writers (the scale.go shape) for
		// local jobs; a drain pair instead writes one file in each of its
		// two racks from the same clientless node.
		type lane struct {
			client *beegfs.Client
			file   *beegfs.File
		}
		newFile := func(rack int) (*beegfs.File, error) {
			jobSeq++
			return dep.FS.CreateWithTargets(
				fmt.Sprintf("/hierscale/job%05d", jobSeq),
				beegfs.StripePattern{ChunkSize: 512 * beegfs.KiB},
				pick(rack, 4),
			)
		}
		var lanes []lane
		if job.drain {
			cl := drainClient(jobSeq % 4)
			for _, rack := range [2]int{job.rack, job.rack2} {
				f, err := newFile(rack)
				if err != nil {
					return err
				}
				lanes = append(lanes, lane{cl, f})
			}
		} else {
			f, err := newFile(job.rack)
			if err != nil {
				return err
			}
			for _, cl := range dep.NodesInRack(job.rack, job.nodes) {
				lanes = append(lanes, lane{cl, f})
			}
		}
		job.startAt = dep.Sim.Now()
		job.pending = len(lanes)
		total := job.perNode * float64(len(lanes))
		for _, ln := range lanes {
			op := &beegfs.WriteOp{
				Client: ln.client, File: ln.file,
				Length:       int64(job.perNode) * beegfs.MiB,
				TransferSize: beegfs.MiB,
				Procs:        job.ppn,
				App:          ln.file.Path,
				OnComplete: func(at simkernel.Time) {
					active--
					job.pending--
					if job.pending == 0 {
						bws = append(bws, total/float64(at-job.startAt))
					}
				},
				OnError: func(err error) {
					panic(fmt.Sprintf("experiments: hierscale job failed: %v", err))
				},
			}
			if _, err := dep.FS.StartWrite(op); err != nil {
				return err
			}
			active++
			if active > peak {
				peak = active
			}
		}
		return nil
	}
	// Poisson arrival chain; all rng draws happen in arrival events at
	// distinct instants, so the stream is identical in every mode.
	nodesBase, nodesSpread := topo.nodesBase, topo.nodesSpread
	if nodesBase == 0 {
		nodesBase, nodesSpread = 2, 3
	}
	var arrive func()
	arrive = func() {
		job := &hierScaleJob{
			rack: src.Intn(racks),
		}
		if src.Intn(3) == 0 {
			job.drain = true
			job.rack2 = (job.rack + 1 + src.Intn(racks-1)) % racks
			job.ppn = 4
			job.perNode = 1024 + float64(src.Intn(4))*256
		} else {
			job.nodes = nodesBase + src.Intn(nodesSpread)
			job.ppn = 4
			job.perNode = 256 + float64(src.Intn(4))*128
		}
		if err := startJob(job); err != nil {
			panic(fmt.Sprintf("experiments: hierscale job submit: %v", err))
		}
		submitted++
		if submitted < jobs {
			dep.Sim.After(src.Exp(topo.meanGap), arrive)
		}
	}
	dep.Sim.After(0.01, arrive)

	var stepNanos obs.Log2Hist
	begin := time.Now()
	prev := begin
	for dep.Sim.Step() {
		now := time.Now()
		stepNanos.Observe(uint64(now.Sub(prev)))
		prev = now
		if dep.Sim.Executed() > 200_000_000 {
			return ExtHierScaleRow{}, fmt.Errorf("experiments: hierscale cell %s/%s runaway event loop", topo.name, mode)
		}
	}
	wall := time.Since(begin).Seconds()
	if len(bws) != jobs {
		return ExtHierScaleRow{}, fmt.Errorf("experiments: hierscale cell %s/%s finished %d of %d jobs", topo.name, mode, len(bws), jobs)
	}
	sum, err := stats.Summarize(bws)
	if err != nil {
		return ExtHierScaleRow{}, err
	}
	var solves uint64
	for _, c := range st.Net.Solves {
		solves += c
	}
	events := st.Kernel.Dispatched
	return ExtHierScaleRow{
		Topology:       topo.name,
		Mode:           mode,
		Racks:          racks,
		Targets:        len(dep.FS.Mgmtd().All()),
		Jobs:           len(bws),
		BWMean:         sum.Mean,
		BWMin:          sum.Min,
		BWMax:          sum.Max,
		PeakFlows:      peak,
		Events:         events,
		Solves:         solves,
		HierSolves:     st.Net.HierSolves,
		HierFallbacks:  st.Net.HierFallbacks,
		OuterRounds:    st.Net.HierOuterRounds,
		ExactFallbacks: st.Net.HierExactFallbacks,
		MaxRelErr:      st.Net.HierMaxRelErr,
		WallSec:        wall,
		EventsPerSec:   float64(events) / wall,
		StepP50us:      histQuantileUS(&stepNanos, 0.50),
		StepP99us:      histQuantileUS(&stepNanos, 0.99),
	}, nil
}

// ExtHierScale runs every FatTreeCore topology in all three solver modes
// and enforces the mode contracts in-line:
//
//   - hier-exact must reproduce flat's simulated results bit-for-bit
//     (bandwidth statistics, job count, peak concurrency) AND must
//     actually have taken the hierarchical path — a silently always-
//     falling-back solver would pass the equality vacuously.
//   - hier-approx must complete the same jobs and its measured residual
//     (Stats.HierMaxRelErr) must not exceed the configured bound.
//
// A violation is an error, not a row.
func ExtHierScale(opts Options) ([]ExtHierScaleRow, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 4
	}
	topos := hierScaleTopos(reps)
	modes := []struct {
		name      string
		workers   int
		maxRelErr float64
	}{
		{"flat", 0, 0},
		{"hier-exact", hierScaleWorkers, 0},
		{"hier-approx", hierScaleWorkers, hierScaleBound},
	}
	rows := make([]ExtHierScaleRow, len(topos)*len(modes))
	err := forEachCell(len(rows), opts.Workers, func(cell int) error {
		topo := topos[cell/len(modes)]
		m := modes[cell%len(modes)]
		jobs := topo.jobsPerRep * reps
		// A distinct stream family from ExtScale (977/53) so the two
		// campaigns stay independent at any shared seed.
		seed := opts.Seed*1061 + uint64(cell/len(modes))*53
		// Every campaign mode runs batched at the same width; the modes
		// differ only in what happens inside a component solve.
		row, err := runHierScaleCell(topo, m.name, m.workers, m.maxRelErr, jobs, seed)
		if err != nil {
			return err
		}
		rows[cell] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i+2 < len(rows); i += 3 {
		flat, exact, approx := rows[i], rows[i+1], rows[i+2]
		if exact.Jobs != flat.Jobs || exact.PeakFlows != flat.PeakFlows ||
			math.Float64bits(exact.BWMean) != math.Float64bits(flat.BWMean) ||
			math.Float64bits(exact.BWMin) != math.Float64bits(flat.BWMin) ||
			math.Float64bits(exact.BWMax) != math.Float64bits(flat.BWMax) {
			return nil, fmt.Errorf("experiments: hierscale topology %s: hier-exact diverges from flat (bw %v vs %v)",
				flat.Topology, exact.BWMean, flat.BWMean)
		}
		if exact.HierSolves == 0 {
			return nil, fmt.Errorf("experiments: hierscale topology %s: hier-exact never took the hierarchical path (equality is vacuous)",
				flat.Topology)
		}
		if exact.MaxRelErr != 0 {
			return nil, fmt.Errorf("experiments: hierscale topology %s: exact mode reported residual %g",
				flat.Topology, exact.MaxRelErr)
		}
		if approx.Jobs != flat.Jobs {
			return nil, fmt.Errorf("experiments: hierscale topology %s: hier-approx finished %d jobs, flat %d",
				flat.Topology, approx.Jobs, flat.Jobs)
		}
		if approx.MaxRelErr > hierScaleBound {
			return nil, fmt.Errorf("experiments: hierscale topology %s: measured residual %g exceeds bound %g",
				flat.Topology, approx.MaxRelErr, hierScaleBound)
		}
	}
	return rows, nil
}
