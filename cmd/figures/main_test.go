package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/beegfs"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/obs"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Reps: 3, Seed: 1, FastProtocol: true}
}

func TestRunSingleFigureWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("6a", tinyOpts(), dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6_scenario1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	csv := string(data)
	if !strings.HasPrefix(csv, "count,mean_mibs") {
		t.Fatalf("unexpected CSV header: %q", csv[:40])
	}
	if lines := strings.Count(csv, "\n"); lines != 9 { // header + 8 counts
		t.Fatalf("CSV lines = %d, want 9", lines)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("99z", tinyOpts(), ""); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunFig8WithoutCSV(t *testing.T) {
	// Empty out dir skips CSV but still renders.
	if err := run("8", tinyOpts(), ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensionFigures(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"extread", "policy"} {
		if err := run(fig, tinyOpts(), dir); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_policy.csv")); err != nil {
		t.Fatal(err)
	}
}

// readCSVs returns every CSV file in dir by name.
func readCSVs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestMemoMatchesSeparateRuns checks the campaign memo's soundness. Under
// -fig all, Figs 8, 10 and 13 and the lessons are served from campaigns
// already simulated for earlier figures; the CSVs must be byte-identical
// to running every figure in its own run() call, each with a fresh memo,
// and the simulated repetitions must be exactly those of the figures that
// own a campaign. Five repetitions at seed 12 leave both of Fig 13's
// sharing groups populated.
func TestMemoMatchesSeparateRuns(t *testing.T) {
	opts := experiments.Options{Reps: 5, Seed: 12, FastProtocol: true, Workers: 2}
	runCounted := func(fig, dir string) uint64 {
		o := opts
		o.Metrics = obs.NewRegistry()
		if err := run(fig, o, dir); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		return o.Metrics.Counter("experiments/repetitions")
	}
	allDir := t.TempDir()
	allReps := runCounted("all", allDir)
	want := readCSVs(t, allDir)

	got := map[string][]byte{}
	var ownReps uint64
	for _, f := range figures {
		dir := t.TempDir()
		n := runCounted(f.name, dir)
		switch f.name {
		case "8", "10", "13", "lessons":
			// Their campaigns belong to 6a, 6b, 12, and 4a/4b/5b/6a/6b/12.
		default:
			ownReps += n
		}
		for name, data := range readCSVs(t, dir) {
			if prev, ok := got[name]; ok && !bytes.Equal(prev, data) {
				t.Errorf("fig %s: %s differs from another figure's separate run", f.name, name)
			}
			got[name] = data
		}
	}
	for name, data := range want {
		if sep, ok := got[name]; !ok {
			t.Errorf("%s: written by -fig all but by no separate run", name)
		} else if !bytes.Equal(sep, data) {
			t.Errorf("%s: -fig all and the separate run differ", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written by a separate run but not by -fig all", name)
		}
	}
	if allReps == 0 || allReps != ownReps {
		t.Errorf("-fig all simulated %d repetitions, want %d (each shared campaign once)", allReps, ownReps)
	}
}

// TestCheckFlagsRejectsBadRepsAndWorkers: negative -reps and -workers
// and an unknown -fig are errors rather than silent fallbacks to the
// defaults; 0 keeps its documented meaning (the paper's 100 repetitions,
// one worker per CPU).
func TestCheckFlagsRejectsBadRepsAndWorkers(t *testing.T) {
	cases := []struct {
		fig           string
		reps, workers int
		ok            bool
	}{
		{"2a", -3, 1, false},
		{"2a", -1, 0, false},
		{"2a", 3, -2, false},
		{"2a", 3, -1, false},
		{"bogus", 3, 1, false},
		{"2a", 3, 0, true},
		{"2a", 0, 1, true},
		{"all", 3, 1, true},
	}
	for _, c := range cases {
		err := checkFlags(c.fig, c.reps, c.workers)
		if (err == nil) != c.ok {
			t.Errorf("-fig %s -reps %d -workers %d: err = %v, want ok=%v", c.fig, c.reps, c.workers, err, c.ok)
		}
	}
}

// TestBadFlagsLeaveSinkFilesAlone: a command line rejected before any
// campaign starts exits non-zero and leaves an existing sink file as it
// was, although Close renders into the sinks on other error exits.
func TestBadFlagsLeaveSinkFilesAlone(t *testing.T) {
	savedArgs, savedFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = savedArgs, savedFlags }()
	path := filepath.Join(t.TempDir(), "m.json")
	const prior = "{\"prior\": true}\n"
	for _, args := range [][]string{
		{"-reps", "-3"},
		{"-workers", "-2"},
		{"-fig", "bogus"},
	} {
		if err := os.WriteFile(path, []byte(prior), 0o644); err != nil {
			t.Fatal(err)
		}
		flag.CommandLine = flag.NewFlagSet("figures", flag.ContinueOnError)
		os.Args = append([]string{"figures", "-out", "", "-metrics", path}, args...)
		if code := realMain(); code == 0 {
			t.Errorf("%v: exit status 0, want non-zero", args)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != prior {
			t.Errorf("%v: sink file rewritten to %q", args, data)
		}
	}
}

// TestFailedRunRendersFinalSinkState: a campaign failing at repetition k
// still leaves the sink files with the state of the k repetitions that
// completed. Live renders are throttled, so only the final render on the
// error path guarantees that.
func TestFailedRunRendersFinalSinkState(t *testing.T) {
	const k = 3
	path := filepath.Join(t.TempDir(), "m.json")
	pl := obs.NewPipeline()
	pl.AddSink(obs.NewJSONSink(path))
	_, runErr := experiments.Campaign{
		Platform: cluster.PlaFRIM(cluster.Scenario1Ethernet),
		Proto:    experiments.Protocol{Repetitions: 6, BlockSize: 6, MinWait: 0.1, MaxWait: 0.5, Seed: 3},
		Workers:  1,
		Pipeline: pl,
		Inspect: func(_ *cluster.Deployment, rec *experiments.Record) error {
			if rec.Rep == k {
				return errors.New("injected failure")
			}
			return nil
		},
	}.Run([]experiments.Config{{
		Label:  "x",
		Params: ior.Params{Nodes: 2, PPN: 4, TransferSize: beegfs.MiB, StripeCount: 4}.WithTotalSize(2 * beegfs.GiB),
	}})
	if runErr == nil {
		t.Fatal("injected failure did not fail the campaign")
	}
	err := closeObservability(pl, runErr, path, "")
	if !errors.Is(err, runErr) {
		t.Fatalf("closeObservability returned %v, want the run's error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Counters["experiments/repetitions"]; got != k {
		t.Fatalf("experiments/repetitions = %d, want the %d completed before the failure", got, k)
	}
}
