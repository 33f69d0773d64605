package experiments

import (
	"reflect"
	"testing"
)

// TestExtScaleFlushWorkersAgree runs the small-topology churn with one
// and with four flush workers: every row field except the wall-clock ones
// must be bit-identical, and the row must describe a plausible campaign.
func TestExtScaleFlushWorkersAgree(t *testing.T) {
	topo := scaleTopos(3)[0]
	jobs := topo.jobsPerRep * 3
	one, err := runScaleCell(topo, 1, jobs, 9*977)
	if err != nil {
		t.Fatal(err)
	}
	four, err := runScaleCell(topo, 4, jobs, 9*977)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Deterministic(), four.Deterministic()) {
		t.Fatalf("rows differ between 1 and 4 flush workers:\n1: %+v\n4: %+v", one.Deterministic(), four.Deterministic())
	}
	if one.Topology != "small" {
		t.Fatalf("topology = %s, want small", one.Topology)
	}
	if one.Jobs != 36 {
		t.Fatalf("jobs = %d, want 36", one.Jobs)
	}
	if one.PeakFlows < 8 {
		t.Fatalf("peak flows = %d, want a non-trivial churn", one.PeakFlows)
	}
	if one.Solves == 0 || one.Solves >= one.Events {
		t.Fatalf("solves = %d for %d events, want fewer than one per event", one.Solves, one.Events)
	}
	if one.BWMean <= 0 || one.BWMin <= 0 || one.BWMax < one.BWMean {
		t.Fatalf("implausible bandwidth summary: %+v", one)
	}
	if one.Racks != 4 || one.Targets != 32 {
		t.Fatalf("topology = %d racks / %d targets, want 4/32", one.Racks, one.Targets)
	}
	rows, err := ExtScale(Options{Reps: 3, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !reflect.DeepEqual(rows[0].Deterministic(), four.Deterministic()) {
		t.Fatalf("ExtScale rows %+v, want the single 4-worker small-topology row", rows)
	}
}
