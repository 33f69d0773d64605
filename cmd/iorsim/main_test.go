package main

import "testing"

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1", 1, true},
		{"512k", 512 * 1024, true},
		{"1m", 1 << 20, true},
		{"32g", 32 << 30, true},
		{"2G", 2 << 30, true}, // case-insensitive
		{" 4m ", 4 << 20, true},
		{"", 0, false},
		{"-1m", 0, false},
		{"0", 0, false},
		{"x", 0, false},
		{"1t", 0, false}, // unsupported suffix
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseSize(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("MPIIO", "1g", "1m", 1, false, true, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{}, hierConfig{}); err == nil {
		t.Fatal("non-POSIX api accepted")
	}
	if err := run("POSIX", "1g", "1m", 1, false, false, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{}, hierConfig{}); err == nil {
		t.Fatal("-w=false accepted")
	}
	if err := run("POSIX", "bogus", "1m", 1, false, true, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{}, hierConfig{}); err == nil {
		t.Fatal("bad block size accepted")
	}
	if err := run("POSIX", "1g", "1m", 1, false, true, false, 1, "/x", 3, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{}, hierConfig{}); err == nil {
		t.Fatal("scenario 3 accepted")
	}
	if err := run("POSIX", "1g", "1m", 1, false, true, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{Timeout: 1}, hierConfig{}); err == nil {
		t.Fatal("heartbeat timeout without interval accepted")
	}
	if err := run("POSIX", "1g", "1m", 1, false, true, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{Interval: -0.5}, hierConfig{}); err == nil {
		t.Fatal("negative heartbeat interval accepted")
	}
	if err := run("POSIX", "1g", "1m", 1, false, true, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{}, hierConfig{Workers: -1}); err == nil {
		t.Fatal("negative -hier accepted")
	}
	if err := run("POSIX", "1g", "1m", 1, false, true, false, 1, "/x", 1, 2, 2, 2, 1, 1, obsConfig{}, heartbeatConfig{}, hierConfig{MaxRelErr: 0.01}); err == nil {
		t.Fatal("-hier-err without -hier accepted")
	}
}

func TestRunEndToEndWithHeartbeats(t *testing.T) {
	// Healthy runs must work identically with the heartbeat state machine on.
	hb := heartbeatConfig{Interval: 0.5, Timeout: 1.0, Offline: 2.5, RPCTimeout: 0.25}
	if err := run("POSIX", "64m", "1m", 1, false, true, true, 2, "/t", 1, 2, 2, 4, 7, 1, obsConfig{}, hb, hierConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	// A tiny write+read run through the real CLI path, serial and pooled.
	if err := run("POSIX", "64m", "1m", 1, false, true, true, 2, "/t", 1, 2, 2, 4, 7, 1, obsConfig{}, heartbeatConfig{}, hierConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := run("POSIX", "64m", "1m", 1, false, true, true, 4, "/t", 1, 2, 2, 4, 7, 4, obsConfig{}, heartbeatConfig{}, hierConfig{}); err != nil {
		t.Fatal(err)
	}
	// Hierarchical exact mode on PlaFRIM declines the partition (the ramp
	// is the only separator) and must run flat-identically.
	if err := run("POSIX", "64m", "1m", 1, false, true, true, 2, "/t", 1, 2, 2, 4, 7, 1, obsConfig{}, heartbeatConfig{}, hierConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadRepsAndWorkers: -i below 1 and negative -workers are
// errors, not a panic, an empty table or a silent "one per CPU"; -workers
// 0 keeps its documented meaning.
func TestRunRejectsBadRepsAndWorkers(t *testing.T) {
	cases := []struct {
		reps, workers int
		ok            bool
	}{
		{-2, 1, false},
		{0, 1, false},
		{1, -2, false},
		{1, -1, false},
		{1, 0, true},
		{2, 1, true},
	}
	for _, c := range cases {
		err := run("POSIX", "64m", "1m", 1, false, true, false, c.reps, "/t", 1, 2, 2, 4, 7, c.workers, obsConfig{}, heartbeatConfig{}, hierConfig{})
		if (err == nil) != c.ok {
			t.Errorf("-i %d -workers %d: err = %v, want ok=%v", c.reps, c.workers, err, c.ok)
		}
	}
}
