package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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
