package experiments

import (
	"testing"

	"repro/internal/cluster"
)

// churn10kTopo floods the large fat tree: arrivals far faster than
// completions, so nearly every job is still in flight when the last one
// arrives — north of 10k concurrent flows at peak.
var churn10kTopo = scaleTopo{
	name: "churn10k",
	spec: cluster.FatTreeSpec{
		Racks: 12, OSSPerRack: 4, TargetsPerOSS: 8,
		LinkRate: 2500, UplinkRate: 10000,
	},
	meanGap:     0.004,
	nodesBase:   4,
	nodesSpread: 4,
}

const churn10kJobs = 4000

// benchmarkScaleChurn runs the full 10k-flow churn once per iteration and
// reports solver work per simulated event. The numbers are informational
// (not CI-gated — a full churn is too long for the bench-smoke job); the
// churn must sustain >=10k concurrent flows. Run with -benchtime 1x.
func benchmarkScaleChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := runScaleCell(churn10kTopo, scaleBatchWorkers, churn10kJobs, 17)
		if err != nil {
			b.Fatal(err)
		}
		if row.PeakFlows < 10_000 {
			b.Fatalf("peak concurrent flows = %d, want >= 10000", row.PeakFlows)
		}
		b.ReportMetric(row.WallSec*1e9/float64(row.Events), "ns/event")
		b.ReportMetric(row.SolvesPerEvent, "solves/event")
		b.ReportMetric(float64(row.PeakFlows), "peak-flows")
	}
}

// churnCoreTopo is the oversubscribed FatTreeCore shape: every rack
// uplink shares the core switch, so the drain-pair traffic fuses the
// whole fabric into ONE component and per-component batching cannot help
// — the case the hierarchical solver exists for.
var churnCoreTopo = hierScaleTopo{
	name: "churn-core",
	spec: cluster.FatTreeSpec{
		Racks: 16, OSSPerRack: 4, TargetsPerOSS: 8,
		LinkRate: 2500, UplinkRate: 10000,
	},
	meanGap:     0.004,
	nodesBase:   4,
	nodesSpread: 4,
}

const churnCoreJobs = 2600

// benchmarkScaleChurnCore runs the single-component core churn once flat
// and once hierarchically (exact mode, 8 workers) per iteration, reports
// both per-event costs, and FAILS below the 3x improvement floor — the
// PR's acceptance gate, enforced as a wall-clock ratio on the same run so
// it holds on any hardware. Run with -benchtime 1x.
func benchmarkScaleChurnCore(b *testing.B, hierWorkers int) {
	for i := 0; i < b.N; i++ {
		flat, err := runHierScaleCell(churnCoreTopo, "flat", 0, 0, churnCoreJobs, 17)
		if err != nil {
			b.Fatal(err)
		}
		hier, err := runHierScaleCell(churnCoreTopo, "hier-exact", hierWorkers, 0, churnCoreJobs, 17)
		if err != nil {
			b.Fatal(err)
		}
		if hier.PeakFlows < 10_000 {
			b.Fatalf("peak concurrent flows = %d, want >= 10000", hier.PeakFlows)
		}
		if hier.HierSolves == 0 {
			b.Fatal("hierarchical mode never engaged on the fused component")
		}
		if hier.Events != flat.Events || hier.BWMean != flat.BWMean {
			b.Fatalf("exact mode diverged from flat: events %d vs %d, bw %v vs %v",
				hier.Events, flat.Events, hier.BWMean, flat.BWMean)
		}
		imp := flat.WallSec / hier.WallSec
		b.ReportMetric(hier.WallSec*1e9/float64(hier.Events), "ns/event")
		b.ReportMetric(flat.WallSec*1e9/float64(flat.Events), "flat-ns/event")
		b.ReportMetric(imp, "improvement")
		b.ReportMetric(float64(hier.PeakFlows), "peak-flows")
		if imp < 3 {
			b.Fatalf("hierarchical improvement %.2fx on the core churn, want >= 3x", imp)
		}
	}
}

func BenchmarkScaleChurn10k(b *testing.B) {
	b.Run("batched", benchmarkScaleChurn)
	b.Run("core-hier8", func(b *testing.B) { benchmarkScaleChurnCore(b, 8) })
}
