// Command probe is the in-process half of perfbench/run.py. It calls the
// simulator's public packages directly, from outside the program, and prints
// one JSON object on stdout.
//
//	probe spans -workload W -seed S -workers N [-seeds K] -cpuprofile FILE
//	    Runs the experiments.Fig*/Ext* calls a workload's figures invocations
//	    make, each inside a pprof.Do label fig=<call> and a wall-clock span,
//	    under a CPU profile, and reports per-call span totals plus Go runtime
//	    allocation and GC counts. The labels let
//	    `go tool pprof -tagfocus fig=Fig6 FILE` split the profile by figure.
//
//	probe reps [-seed S]
//	    Times the calls of one PlaFRIM repetition (Fig 6b, stripe count 8:
//	    32 nodes x 8 ppn, 32 GiB) 1000 times and counts their allocations:
//	    Platform.Deploy, Deployment.ReJitter, Deployment.Nodes, ior.Start,
//	    the Simulation.Step drain and FileSystem.Remove.
//
//	probe stats < {"a": [...], "b": [...]}
//	    Welch t-test and Mann-Whitney U of two samples, from internal/stats.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		fail(errors.New("usage: probe spans|reps|stats [flags]"))
	}
	var (
		out any
		err error
	)
	switch os.Args[1] {
	case "spans":
		out, err = spansCmd(os.Args[2:])
	case "reps":
		out, err = repsCmd(os.Args[2:])
	case "stats":
		out, err = statsCmd()
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "probe:", err)
	os.Exit(1)
}

// span accumulates the wall time of every call made under one name.
type span struct {
	Seconds float64 `json:"s"`
	Calls   int     `json:"n"`
}

// tracer wraps calls into the experiments layer in a pprof label and a
// wall-clock span.
type tracer struct {
	spans map[string]*span
}

func (t *tracer) do(name string, fn func() error) error {
	var err error
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("fig", name), func(context.Context) { err = fn() })
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	s.Seconds += time.Since(start).Seconds()
	s.Calls++
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// countingSink counts the flushes the pipeline hands a sink.
type countingSink struct {
	obs.Sink
	flushes *int
}

func (c countingSink) Flush(snap *obs.Snapshot) error {
	*c.flushes++
	return c.Sink.Flush(snap)
}

type spansReport struct {
	WallS    float64          `json:"wall_s"`
	Spans    map[string]*span `json:"spans"`
	AllocMiB float64          `json:"alloc_mib"`
	GCCycles uint32           `json:"gc_cycles"`
	Flushes  int              `json:"obs_flushes"`
	Error    string           `json:"error,omitempty"`
}

func spansCmd(args []string) (any, error) {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	workload := fs.String("workload", "", "repro-serial, repro-parallel, fabric-churn or repro-observed")
	seed := fs.Uint64("seed", 42, "campaign seed")
	workers := fs.Int("workers", 1, "concurrent repetitions")
	seeds := fs.Uint64("seeds", 1, "fabric-churn: consecutive campaign seeds from -seed")
	cpuProf := fs.String("cpuprofile", "", "write the labelled CPU profile to this file (required)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *cpuProf == "" {
		return nil, errors.New("spans: -cpuprofile is required")
	}
	opts := experiments.Options{Reps: 100, Seed: *seed, FastProtocol: true, Workers: *workers}
	rep := &spansReport{}
	t := &tracer{spans: map[string]*span{}}
	rep.Spans = t.spans

	var body func() error
	switch *workload {
	case "repro-serial", "repro-parallel":
		body = func() error { return figAll(t, opts) }
	case "fabric-churn":
		body = func() error {
			for s := *seed; s < *seed+*seeds; s++ {
				o := opts
				o.Seed = s
				o.Reps = 40 // the cap cmd/figures applies to both campaigns
				if err := t.do("ExtScale", func() error { _, err := experiments.ExtScale(o); return err }); err != nil {
					return err
				}
				if err := t.do("ExtHierScale", func() error { _, err := experiments.ExtHierScale(o); return err }); err != nil {
					return err
				}
			}
			return nil
		}
	case "repro-observed":
		// Like the timed executions, the sinks render and write every
		// flush but discard the output.
		pl := obs.NewPipeline()
		for _, s := range []obs.Sink{
			obs.NewJSONSink(os.DevNull),
			obs.NewPromSink(os.DevNull),
			obs.NewInfluxSink(os.DevNull),
		} {
			pl.AddSink(countingSink{Sink: s, flushes: &rep.Flushes})
		}
		opts.Pipeline = pl
		body = func() error {
			if err := fig12(t, opts); err != nil {
				return err
			}
			return pl.Close()
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", *workload)
	}

	f, err := os.Create(*cpuProf)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := body(); err != nil {
		// A failing campaign is reported, not fatal: run.py counts it.
		rep.Error = err.Error()
	}
	rep.WallS = time.Since(start).Seconds()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("writing %s: %w", *cpuProf, err)
	}
	runtime.ReadMemStats(&after)
	rep.AllocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	rep.GCCycles = after.NumGC - before.NumGC
	return rep, nil
}

// figAll makes the experiments calls of `figures -fig all`, in its order and
// with its per-figure repetition caps.
func figAll(t *tracer, opts experiments.Options) error {
	s1, s2 := cluster.Scenario1Ethernet, cluster.Scenario2Omnipath
	capped := func(n int) experiments.Options {
		o := opts
		if o.Reps > n {
			o.Reps = n
		}
		return o
	}
	calls := []struct {
		name string
		fn   func() error
	}{
		{"Fig2", func() error { _, err := experiments.Fig2(s1, opts); return err }},
		{"Fig2", func() error { _, err := experiments.Fig2(s2, opts); return err }},
		{"Fig4", func() error { _, err := experiments.Fig4(s1, opts); return err }},
		{"Fig4", func() error { _, err := experiments.Fig4(s2, opts); return err }},
		{"Fig5", func() error { _, err := experiments.Fig5(s1, opts); return err }},
		{"Fig5", func() error { _, err := experiments.Fig5(s2, opts); return err }},
		{"Fig6", func() error { _, err := experiments.Fig6(s1, opts); return err }},
		{"Fig6", func() error { _, err := experiments.Fig6(s2, opts); return err }},
		{"Fig8", func() error { _, err := experiments.Fig8(opts); return err }},
		{"Fig10", func() error { _, err := experiments.Fig10(opts); return err }},
		{"Fig11", func() error { _, err := experiments.Fig11(opts); return err }},
		{"fig12", func() error { return fig12(t, opts) }},
		// lessons re-runs these campaigns.
		{"Fig4", func() error { _, err := experiments.Fig4(s1, opts); return err }},
		{"Fig4", func() error { _, err := experiments.Fig4(s2, opts); return err }},
		{"Fig5", func() error { _, err := experiments.Fig5(s2, opts); return err }},
		{"Fig6", func() error { _, err := experiments.Fig6(s1, opts); return err }},
		{"Fig6", func() error {
			pts, err := experiments.Fig6(s2, opts)
			if err == nil {
				_, err = experiments.GroupByAllocation(pts)
			}
			return err
		}},
		{"fig12", func() error { return fig12(t, opts) }},
		{"ExtNN", func() error { _, err := experiments.ExtNN(capped(20)); return err }},
		{"ExtRead", func() error { _, err := experiments.ExtRead(opts); return err }},
		{"ComparePolicies", func() error {
			for _, apps := range []int{2, 4} {
				o := capped(25)
				o.Seed = opts.Seed + uint64(apps)
				if _, err := experiments.ComparePolicies(apps, o); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ExtResilience", func() error { _, err := experiments.ExtResilience(capped(20)); return err }},
		{"ExtChaos", func() error { _, err := experiments.ExtChaos(capped(20)); return err }},
		{"ExtScale", func() error { _, err := experiments.ExtScale(capped(40)); return err }},
		{"ExtHierScale", func() error { _, err := experiments.ExtHierScale(capped(40)); return err }},
	}
	for _, c := range calls {
		if c.name == "fig12" {
			// fig12 opens its own Fig12 and Fig13 spans.
			if err := c.fn(); err != nil {
				return err
			}
			continue
		}
		if err := t.do(c.name, c.fn); err != nil {
			return err
		}
	}
	return nil
}

func fig12(t *tracer, opts experiments.Options) error {
	var rows []experiments.Fig12Row
	if err := t.do("Fig12", func() error {
		var err error
		rows, err = experiments.Fig12(opts)
		return err
	}); err != nil {
		return err
	}
	return t.do("Fig13", func() error { _, err := experiments.Fig13(rows); return err })
}

// callStats is one probed call's distribution over the repetitions.
type callStats struct {
	MedianUS float64 `json:"median_us"`
	P99US    float64 `json:"p99_us"`
	Samples  int     `json:"n"`
	Allocs   float64 `json:"allocs"`
}

// repCalls names the probed calls in the order a repetition makes them.
var repCalls = []string{"Deploy", "ReJitter", "Nodes", "ior.Start", "Step", "Remove"}

func repsCmd(args []string) (any, error) {
	fs := flag.NewFlagSet("reps", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "repetition seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// 1000 measured repetitions put ten samples beyond p99.
	const warmup, measured = 50, 1000
	times := make(map[string][]float64, len(repCalls))
	allocs := make(map[string]uint64, len(repCalls))
	for i := 0; i < warmup+measured; i++ {
		keep := i >= warmup
		rec := func(name string, fn func() error) error {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			err := fn()
			d := time.Since(start)
			runtime.ReadMemStats(&m1)
			if keep {
				times[name] = append(times[name], float64(d.Nanoseconds())/1e3)
				allocs[name] += m1.Mallocs - m0.Mallocs
			}
			if err != nil {
				return fmt.Errorf("rep %d %s: %w", i, name, err)
			}
			return nil
		}
		if err := oneRep(*seed, i, rec); err != nil {
			return nil, err
		}
	}
	calls := map[string]callStats{}
	for _, name := range repCalls {
		xs := times[name]
		calls[name] = callStats{
			MedianUS: stats.Quantile(xs, 0.5),
			P99US:    stats.Quantile(xs, 0.99),
			Samples:  len(xs),
			Allocs:   float64(allocs[name]) / float64(len(xs)),
		}
	}
	return map[string]any{"calls": calls}, nil
}

// oneRep runs one Fig 6b count-8 repetition the way the campaign engine
// does, passing each probed call through rec.
func oneRep(seed uint64, i int, rec func(string, func() error) error) error {
	src := rng.New(seed).Split(uint64(i))
	p := cluster.PlaFRIM(cluster.Scenario2Omnipath)
	if cl, ok := p.FS.Chooser.(beegfs.CloneChooser); ok {
		p.FS.Chooser = cl.Clone()
	}
	var dep *cluster.Deployment
	if err := rec("Deploy", func() (err error) { dep, err = p.Deploy(); return err }); err != nil {
		return err
	}
	if cc, ok := p.FS.Chooser.(beegfs.CursorChooser); ok {
		cc.SetCursor(i) // vary the allocation across repetitions
	}
	appSrc := src.Split(16)
	if err := rec("ReJitter", func() error { dep.ReJitter(src); return nil }); err != nil {
		return err
	}
	var nodes []*beegfs.Client
	if err := rec("Nodes", func() error { nodes = dep.Nodes(32); return nil }); err != nil {
		return err
	}
	params := ior.Params{Nodes: 32, PPN: 8, TransferSize: beegfs.MiB, StripeCount: 8}.WithTotalSize(32 * beegfs.GiB)
	params.SetupMean, params.SetupCV = dep.Platform.SetupMean, dep.Platform.SetupCV
	params.App, params.Path = "count8/app1", "/count8/app1/data"
	done := false
	var run *ior.Run
	if err := rec("ior.Start", func() (err error) {
		run, err = ior.Start(dep.FS, nodes, params, appSrc, func(ior.Result) { done = true })
		return err
	}); err != nil {
		return err
	}
	if err := rec("Step", func() error {
		for !done {
			if !dep.Sim.Step() {
				return errors.New("simulation drained before the run finished")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	res := run.Result()
	if res.Err != nil {
		return res.Err
	}
	if !(res.Bandwidth > 0) || math.IsInf(res.Bandwidth, 0) {
		return fmt.Errorf("rep %d: bandwidth %v", i, res.Bandwidth)
	}
	return rec("Remove", func() error {
		for _, path := range res.Paths {
			if err := dep.FS.Remove(path); err != nil {
				return err
			}
		}
		return nil
	})
}

func statsCmd() (any, error) {
	var in struct{ A, B []float64 }
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		return nil, fmt.Errorf("reading samples: %w", err)
	}
	w, err := stats.WelchT(in.A, in.B)
	if err != nil {
		return nil, fmt.Errorf("welch: %w", err)
	}
	mw, err := stats.MannWhitneyU(in.A, in.B)
	if err != nil {
		return nil, fmt.Errorf("mann-whitney: %w", err)
	}
	return map[string]map[string]float64{
		"welch":        {"t": w.T, "df": w.DF, "p": w.P},
		"mann_whitney": {"u": mw.U, "z": mw.Z, "p": mw.P},
	}, nil
}
