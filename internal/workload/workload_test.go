package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func job(id string, arrival float64, nodes int, gib float64) Job {
	return Job{ID: id, Arrival: arrival, Nodes: nodes, PPN: 8, StripeCount: 4, TotalGiB: gib}
}

func TestJobValidate(t *testing.T) {
	if err := job("a", 0, 4, 8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{Arrival: 0, Nodes: 4, PPN: 8, TotalGiB: 1},           // no id
		{ID: "x", Arrival: -1, Nodes: 4, PPN: 8, TotalGiB: 1}, // negative arrival
		{ID: "x", Arrival: 0, Nodes: 0, PPN: 8, TotalGiB: 1},  // no nodes
		{ID: "x", Arrival: 0, Nodes: 4, PPN: 0, TotalGiB: 1},  // no ppn
		{ID: "x", Arrival: 0, Nodes: 4, PPN: 8, TotalGiB: 0},  // nothing to write
		{ID: "x", Arrival: 0, Nodes: 4, PPN: 8, TotalGiB: 1, StripeCount: -1},
	}
	for i, j := range bad {
		if j.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestTraceRejectsOutOfBounds checks that values no replay could honour
// are rejected up front, by Validate and by ParseTrace, instead of
// overflowing the size arithmetic or stalling the simulation.
func TestTraceRejectsOutOfBounds(t *testing.T) {
	ok := job("a", 0, 4, 8)
	bad := map[string]Job{
		"NaN arrival":        {ID: "x", Arrival: math.NaN(), Nodes: 4, PPN: 8, TotalGiB: 1},
		"infinite arrival":   {ID: "x", Arrival: math.Inf(1), Nodes: 4, PPN: 8, TotalGiB: 1},
		"arrival over bound": {ID: "x", Arrival: 2 * MaxArrival, Nodes: 4, PPN: 8, TotalGiB: 1},
		"NaN volume":         {ID: "x", Nodes: 4, PPN: 8, TotalGiB: math.NaN()},
		"infinite volume":    {ID: "x", Nodes: 4, PPN: 8, TotalGiB: math.Inf(1)},
		"volume over bound":  {ID: "x", Nodes: 4, PPN: 8, TotalGiB: 2 * MaxJobGiB},
		"procs over bound":   {ID: "x", Nodes: MaxJobProcs, PPN: 2, TotalGiB: 1},
		"procs overflow":     {ID: "x", Nodes: math.MaxInt, PPN: math.MaxInt, TotalGiB: 1},
	}
	for name, j := range bad {
		if j.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, j)
		}
		data, err := EncodeTrace([]Job{ok, j})
		if err != nil {
			continue // JSON cannot carry NaN or infinities at all
		}
		if _, err := ParseTrace(data); err == nil {
			t.Errorf("%s: ParseTrace accepted %s", name, data)
		}
	}
	edge := []Job{
		{ID: "arrival at bound", Arrival: MaxArrival, Nodes: 1, PPN: 1, TotalGiB: 1},
		{ID: "procs at bound", Nodes: MaxJobProcs / 8, PPN: 8, TotalGiB: 1},
		{ID: "volume at bound", Nodes: 1, PPN: 1, TotalGiB: MaxJobGiB},
	}
	for _, j := range edge {
		if err := j.Validate(); err != nil {
			t.Errorf("%s rejected: %v", j.ID, err)
		}
	}
	trace := func(n int) []byte {
		entry := `{"id":"j","nodes":1,"ppn":1,"total_gib":1}`
		return []byte("[" + strings.Repeat(entry+",", n-1) + entry + "]")
	}
	if _, err := ParseTrace(trace(MaxTraceJobs + 1)); err == nil {
		t.Errorf("trace of %d jobs accepted", MaxTraceJobs+1)
	}
	if _, err := ParseTrace(trace(MaxTraceJobs)); err != nil {
		t.Errorf("trace of %d jobs rejected: %v", MaxTraceJobs, err)
	}
}

// FuzzTrace feeds arbitrary bytes through ParseTrace and replays every
// accepted trace on a four-node PlaFRIM deployment: nothing may panic,
// and an accepted trace whose jobs fit the pool must replay, with one
// result per job. Traces above a small work budget are only parsed, which
// keeps each execution short.
func FuzzTrace(f *testing.F) {
	f.Add([]byte(`[{"id":"a","arrival":0,"nodes":2,"ppn":4,"total_gib":1}]`))
	f.Add([]byte(`[{"id":"a","arrival":0,"nodes":1,"ppn":2,"stripe_count":8,"total_gib":0.5,"read_back":true},` +
		`{"id":"b","arrival":0.5,"nodes":4,"ppn":1,"stripe_count":2,"total_gib":1}]`))
	f.Add([]byte(`[{"id":"a","arrival":1e9,"nodes":1,"ppn":1,"total_gib":1e-9}]`))
	f.Add([]byte(`[{"id":"x","arrival":-1,"nodes":65536,"ppn":65536,"total_gib":1e300}]`))
	f.Add([]byte(`[{"id":"a","arrival":0,"nodes":1,"ppn":1,"stripe_count":1000000000,"total_gib":1}]`))
	p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	const pool = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ParseTrace(data)
		if err != nil {
			return
		}
		procs, gib := 0, 0.0
		for _, j := range jobs {
			if j.Nodes > pool {
				return
			}
			procs += j.Nodes * j.PPN
			gib += j.TotalGiB
		}
		if len(jobs) > 8 || procs > 64 || gib > 4 {
			return
		}
		res, err := Replay(p, pool, jobs, 1)
		if err != nil {
			t.Fatalf("accepted trace failed to replay: %v\n%s", err, data)
		}
		if len(res) != len(jobs) {
			t.Fatalf("%d results for %d jobs", len(res), len(jobs))
		}
	})
}

func TestTraceRoundTrip(t *testing.T) {
	jobs := []Job{job("a", 0, 4, 8), job("b", 10.5, 8, 32)}
	data, err := EncodeTrace(jobs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != jobs[0] || back[1] != jobs[1] {
		t.Fatalf("round trip changed trace: %+v", back)
	}
}

func TestTraceRejectsBadInput(t *testing.T) {
	if _, err := ParseTrace([]byte(`[{"id":"x","unknown":1}]`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseTrace([]byte(`[{"id":"","arrival":0,"nodes":1,"ppn":1,"total_gib":1}]`)); err == nil {
		t.Fatal("invalid job accepted")
	}
	if _, err := ParseTrace([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestReplaySequentialJobs(t *testing.T) {
	// Two jobs, the second arrives long after the first finishes: no
	// queueing, full solo bandwidth for both.
	jobs := []Job{job("j1", 0, 8, 8), job("j2", 1000, 8, 8)}
	results, err := Replay(cluster.PlaFRIM(cluster.Scenario1Ethernet), 16, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Queued != 0 {
			t.Fatalf("job %s queued %v, want 0", r.Job.ID, r.Queued)
		}
		if r.Bandwidth < 1200 || r.Bandwidth > 1600 {
			t.Fatalf("job %s bandwidth %v, want solo ~1460", r.Job.ID, r.Bandwidth)
		}
		if r.Stretch() != 1 {
			t.Fatalf("job %s stretch %v", r.Job.ID, r.Stretch())
		}
	}
}

func TestReplayQueuesWhenPoolExhausted(t *testing.T) {
	// Pool of 8; two 8-node jobs arriving together: the second must wait
	// for the first to finish.
	jobs := []Job{job("first", 0, 8, 8), job("second", 0.001, 8, 8)}
	results, err := Replay(cluster.PlaFRIM(cluster.Scenario1Ethernet), 8, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Result{}
	for _, r := range results {
		byID[r.Job.ID] = r
	}
	if byID["first"].Queued != 0 {
		t.Fatalf("first job queued %v", byID["first"].Queued)
	}
	if byID["second"].Queued <= 0 {
		t.Fatal("second job did not queue")
	}
	if byID["second"].Stretch() <= 1 {
		t.Fatalf("second job stretch %v, want > 1", byID["second"].Stretch())
	}
	// No overlap: second starts at/after first ends.
	if byID["second"].Start < byID["first"].End {
		t.Fatalf("jobs overlapped: second started %v before first ended %v",
			byID["second"].Start, byID["first"].End)
	}
}

func TestReplayConcurrentJobsShareBandwidth(t *testing.T) {
	// Two 8-node jobs on a 16-node pool run concurrently and split the
	// shared infrastructure: each is slower than solo, and the overlap is
	// real.
	jobs := []Job{job("a", 0, 8, 16), job("b", 0.001, 8, 16)}
	results, err := Replay(cluster.PlaFRIM(cluster.Scenario2Omnipath), 16, jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	soloJobs := []Job{job("solo", 0, 8, 16)}
	solo, err := Replay(cluster.PlaFRIM(cluster.Scenario2Omnipath), 16, soloJobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Queued != 0 {
			t.Fatalf("job %s queued; pool should fit both", r.Job.ID)
		}
		if r.Bandwidth >= solo[0].Bandwidth {
			t.Fatalf("concurrent job %s (%v) not slower than solo (%v)", r.Job.ID, r.Bandwidth, solo[0].Bandwidth)
		}
	}
}

func TestReplayReadBack(t *testing.T) {
	jobs := []Job{{ID: "rw", Arrival: 0, Nodes: 4, PPN: 8, StripeCount: 8, TotalGiB: 4, ReadBack: true}}
	results, err := Replay(cluster.PlaFRIM(cluster.Scenario1Ethernet), 4, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ReadBandwidth <= 0 {
		t.Fatal("read-back bandwidth missing")
	}
}

func TestReplayErrors(t *testing.T) {
	p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	if _, err := Replay(p, 0, []Job{job("a", 0, 1, 1)}, 1); err == nil {
		t.Fatal("zero pool accepted")
	}
	if _, err := Replay(p, 4, []Job{job("a", 0, 8, 1)}, 1); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := Replay(p, 4, []Job{{ID: "bad"}}, 1); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestReplayFCFSOrderPreserved(t *testing.T) {
	// Three 8-node jobs on an 8-node pool: they run strictly in arrival
	// order even though later jobs are smaller.
	jobs := []Job{
		job("big1", 0, 8, 16),
		job("big2", 0.01, 8, 16),
		{ID: "small", Arrival: 0.02, Nodes: 2, PPN: 8, StripeCount: 4, TotalGiB: 1},
	}
	results, err := Replay(cluster.PlaFRIM(cluster.Scenario1Ethernet), 8, jobs, 5)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Result{}
	for _, r := range results {
		byID[r.Job.ID] = r
	}
	// No backfilling: the queue is strict FCFS, and big2 occupies all 8
	// nodes, so the 2-node job can start only after big2 ends.
	if byID["small"].Start < byID["big2"].End {
		t.Fatalf("FCFS violated: small started %v before big2 ended %v", byID["small"].Start, byID["big2"].End)
	}
}

// A job that hits a dead file system is recorded as a failed Result — the
// replay finishes, earlier jobs keep their numbers, nothing panics.
func TestReplayRecordsJobFailure(t *testing.T) {
	p := cluster.PlaFRIM(cluster.Scenario1Ethernet)
	dep, err := p.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	// Both storage hosts die at t=30 and never recover: job a (arrival 0,
	// ~2s long) completes, job b (arrival 40) cannot even create its file.
	if err := faults.NewInjector(dep.FS).Arm(faults.Schedule{
		{At: 30, Kind: faults.HostFault, ID: 1, Action: faults.Fail},
		{At: 30, Kind: faults.HostFault, ID: 2, Action: faults.Fail},
	}); err != nil {
		t.Fatal(err)
	}
	jobs := []Job{job("a", 0, 2, 1), job("b", 40, 2, 1)}
	results, err := ReplayOn(dep, p.SetupMean, p.SetupCV, 4, jobs, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	byID := map[string]Result{}
	for _, r := range results {
		byID[r.Job.ID] = r
	}
	if a := byID["a"]; a.Err != nil || a.Bandwidth <= 0 {
		t.Fatalf("healthy job a: %+v", a)
	}
	if b := byID["b"]; b.Err == nil || b.Bandwidth != 0 {
		t.Fatalf("job b on a dead file system: err=%v bw=%v", b.Err, b.Bandwidth)
	}
}
