// Job-churn scale campaign: datacenter-sized fat-tree topologies under
// Poisson job arrivals, one cell per topology. It measures the paper's
// metrics at a scale PlaFRIM cannot reach — per-job bandwidth under
// rack-local placement, peak in-flight flow counts, solver work per
// simulated event — with the network's flush fanning same-instant
// component solves over scaleBatchWorkers goroutines. Only the wall-clock
// fields (events/s, per-event step-time percentiles) vary between runs.
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

// scaleBatchWorkers is the network's flush worker-pool width (see
// simnet.SetFlushWorkers) in the fat-tree campaigns.
// Fixed (not tied to Options.Workers, which governs cell concurrency) so
// the campaign's rows are identical at any -workers setting.
const scaleBatchWorkers = 4

// ExtScaleRow is one topology cell of the scale campaign.
type ExtScaleRow struct {
	Topology string
	// Racks and Targets describe the deployed fabric.
	Racks   int
	Targets int
	// Jobs is the number of completed jobs; job bandwidth is the paper's
	// per-application metric (volume / makespan, MiB/s).
	Jobs      int
	BWMean    float64
	BWMin     float64
	BWMax     float64
	PeakFlows int
	// Events and Solves count dispatched kernel events and component
	// waterfill solves; SolvesPerEvent is their ratio — the quantity
	// same-instant batching keeps low.
	Events         uint64
	Solves         uint64
	SolvesPerEvent float64
	// Wall-clock measurements. Nondeterministic by nature (host load, GC):
	// excluded from the determinism comparison (see Deterministic) and
	// from the CSV, reported on stdout only.
	WallSec      float64
	EventsPerSec float64
	StepP50us    float64
	StepP99us    float64
}

// Deterministic returns the row with its wall-clock fields zeroed — the
// portion that must be bit-identical across -workers settings and flush
// worker counts.
func (r ExtScaleRow) Deterministic() ExtScaleRow {
	r.WallSec, r.EventsPerSec, r.StepP50us, r.StepP99us = 0, 0, 0, 0
	return r
}

// scaleTopo is one fabric size of the campaign.
type scaleTopo struct {
	name string
	spec cluster.FatTreeSpec
	// jobsPerRep scales the churn length with Options.Reps.
	jobsPerRep int
	// meanGap is the Poisson mean inter-arrival time in seconds; smaller
	// gaps pile up more concurrent jobs.
	meanGap float64
	// nodesBase/nodesSpread draw each job's node count as
	// base + Intn(spread); zero values default to 2 + Intn(3).
	nodesBase   int
	nodesSpread int
}

func scaleTopos(reps int) []scaleTopo {
	topos := []scaleTopo{{
		name: "small",
		spec: cluster.FatTreeSpec{
			Racks: 4, OSSPerRack: 2, TargetsPerOSS: 4,
			LinkRate: 2500, UplinkRate: 5000,
		},
		jobsPerRep: 12,
		meanGap:    0.4,
	}}
	if reps >= 20 {
		topos = append(topos, scaleTopo{
			name: "large",
			spec: cluster.FatTreeSpec{
				Racks: 12, OSSPerRack: 4, TargetsPerOSS: 8,
				LinkRate: 2500, UplinkRate: 10000,
			},
			jobsPerRep: 30,
			meanGap:    0.12,
		})
	}
	return topos
}

// scaleJob is one application of the churn: a handful of same-rack
// compute nodes writing a rack-locally striped file.
type scaleJob struct {
	rack    int
	nodes   int
	ppn     int
	perNode float64 // MiB written by each node
	startAt simkernel.Time
	pending int
}

// runScaleCell simulates one topology cell with flushWorkers flush solver
// goroutines and returns its row.
func runScaleCell(topo scaleTopo, flushWorkers, jobs int, seed uint64) (ExtScaleRow, error) {
	p, err := cluster.FatTree("scale-"+topo.name, topo.spec)
	if err != nil {
		return ExtScaleRow{}, err
	}
	dep, err := p.Deploy()
	if err != nil {
		return ExtScaleRow{}, err
	}
	dep.Net.SetFlushWorkers(flushWorkers)
	st := dep.EnableStats()

	// Rack-local placement state: targets grouped by rack (registration
	// order) with a rotating per-rack cursor — the beegfs-ctl
	// --storagetargets analog of the rotating round-robin chooser.
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

	src := rng.New(seed)
	var (
		bws       []float64
		active    int
		peak      int
		submitted int
		jobSeq    int
	)
	startJob := func(job *scaleJob) error {
		jobSeq++
		f, err := dep.FS.CreateWithTargets(
			fmt.Sprintf("/scale/job%05d", jobSeq),
			beegfs.StripePattern{ChunkSize: 512 * beegfs.KiB},
			pick(job.rack, 4),
		)
		if err != nil {
			return err
		}
		job.startAt = dep.Sim.Now()
		job.pending = job.nodes
		total := job.perNode * float64(job.nodes)
		for _, client := range dep.NodesInRack(job.rack, job.nodes) {
			op := &beegfs.WriteOp{
				Client: client, File: f,
				Length:       int64(job.perNode) * beegfs.MiB,
				TransferSize: beegfs.MiB,
				Procs:        job.ppn,
				App:          f.Path,
				OnComplete: func(at simkernel.Time) {
					active--
					job.pending--
					if job.pending == 0 {
						bws = append(bws, total/float64(at-job.startAt))
					}
				},
				OnError: func(err error) {
					panic(fmt.Sprintf("experiments: scale job failed: %v", err))
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
	// Poisson arrival chain: each arrival draws the next one, stopping
	// after the target job count. All rng draws happen in arrival events
	// at distinct instants, so the stream is identical at any worker count.
	nodesBase, nodesSpread := topo.nodesBase, topo.nodesSpread
	if nodesBase == 0 {
		nodesBase, nodesSpread = 2, 3
	}
	var arrive func()
	arrive = func() {
		job := &scaleJob{
			rack:    src.Intn(racks),
			nodes:   nodesBase + src.Intn(nodesSpread),
			ppn:     4,
			perNode: 256 + float64(src.Intn(4))*128,
		}
		if err := startJob(job); err != nil {
			panic(fmt.Sprintf("experiments: scale job submit: %v", err))
		}
		submitted++
		if submitted < jobs {
			dep.Sim.After(src.Exp(topo.meanGap), arrive)
		}
	}
	dep.Sim.After(0.01, arrive)

	// Manual step loop instead of Sim.Run: per-event wall timing feeds the
	// step-time histogram the row's percentiles come from.
	var stepNanos obs.Log2Hist
	begin := time.Now()
	prev := begin
	for dep.Sim.Step() {
		now := time.Now()
		stepNanos.Observe(uint64(now.Sub(prev)))
		prev = now
		if dep.Sim.Executed() > 200_000_000 {
			return ExtScaleRow{}, fmt.Errorf("experiments: scale cell %s runaway event loop", topo.name)
		}
	}
	wall := time.Since(begin).Seconds()
	if len(bws) != jobs {
		return ExtScaleRow{}, fmt.Errorf("experiments: scale cell %s finished %d of %d jobs", topo.name, len(bws), jobs)
	}
	sum, err := stats.Summarize(bws)
	if err != nil {
		return ExtScaleRow{}, err
	}
	var solves uint64
	for _, c := range st.Net.Solves {
		solves += c
	}
	events := st.Kernel.Dispatched
	return ExtScaleRow{
		Topology:       topo.name,
		Racks:          racks,
		Targets:        len(dep.FS.Mgmtd().All()),
		Jobs:           len(bws),
		BWMean:         sum.Mean,
		BWMin:          sum.Min,
		BWMax:          sum.Max,
		PeakFlows:      peak,
		Events:         events,
		Solves:         solves,
		SolvesPerEvent: float64(solves) / float64(events),
		WallSec:        wall,
		EventsPerSec:   float64(events) / wall,
		StepP50us:      histQuantileUS(&stepNanos, 0.50),
		StepP99us:      histQuantileUS(&stepNanos, 0.99),
	}, nil
}

// histQuantileUS estimates a quantile of a nanosecond-valued Log2Hist in
// microseconds, using each bucket's geometric midpoint. Log-2 resolution
// is plenty for a wall-clock reporting field.
func histQuantileUS(h *obs.Log2Hist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	var seen uint64
	for i, b := range h.Buckets {
		seen += b
		if b > 0 && seen >= rank {
			if i == 0 {
				return 0
			}
			mid := math.Sqrt(math.Exp2(float64(i-1)) * math.Exp2(float64(i)))
			return mid / 1e3
		}
	}
	return 0
}

// ExtScale runs the scale campaign: one row per topology.
func ExtScale(opts Options) ([]ExtScaleRow, error) {
	reps := opts.Reps
	if reps <= 0 {
		reps = 4
	}
	topos := scaleTopos(reps)
	rows := make([]ExtScaleRow, len(topos))
	err := forEachCell(len(rows), opts.Workers, func(cell int) error {
		topo := topos[cell]
		seed := opts.Seed*977 + uint64(cell)*53
		row, err := runScaleCell(topo, scaleBatchWorkers, topo.jobsPerRep*reps, seed)
		if err != nil {
			return err
		}
		rows[cell] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
