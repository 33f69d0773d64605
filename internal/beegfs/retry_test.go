package beegfs

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/simkernel"
)

// retryDelay's documented schedule: RetryTimeout alone for the first
// re-issue, then RetryTimeout + min(RetryBackoffBase*2^(k-2),
// 60*RetryBackoffBase) for attempt k.
func TestRetryDelaySchedule(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryBackoffBase = 0.5
	cfg.RetryMax = 32
	_, fs := newFS(t, cfg)
	cases := []struct {
		attempt int
		want    float64
	}{
		{1, 0.5},        // plain timeout
		{2, 0.5 + 0.5},  // base * 2^0
		{3, 0.5 + 1.0},  // base * 2^1
		{4, 0.5 + 2.0},  // base * 2^2
		{8, 0.5 + 30.0}, // base * 2^6 = 32 > cap 60*base = 30
		{20, 0.5 + 30.0},
	}
	for _, c := range cases {
		if got := fs.retryDelay(c.attempt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("retryDelay(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
}

// With RetryBackoffBase zero, the backoff falls back to RetryTimeout as
// its base instead of collapsing to an instant-retry storm.
func TestRetryDelayZeroBaseFallback(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.25
	cfg.RetryBackoffBase = 0
	cfg.RetryMax = 8
	_, fs := newFS(t, cfg)
	if got, want := fs.retryDelay(2), 0.25+0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("retryDelay(2) = %v, want %v (base falls back to RetryTimeout)", got, want)
	}
	if got, want := fs.retryDelay(12), 0.25+60*0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("retryDelay(12) = %v, want %v (cap uses the fallback base)", got, want)
	}
}

// A permanent failure exhausts exactly RetryMax re-issues: the terminal
// error wraps ErrRetriesExhausted, its Attempts equals RetryMax, and
// Stats.RetriesScheduled counted each scheduled re-issue once.
func TestRetryExhaustionMatchesStats(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryBackoffBase = 0.5
	cfg.RetryMax = 3
	sim, fs := newFS(t, cfg)
	var st Stats
	fs.SetStats(&st)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var opErr error
	if _, err := fs.StartWrite(&WriteOp{
		Client: client, File: f, Length: 1764 * MiB, TransferSize: MiB,
		OnComplete: func(simkernel.Time) { t.Error("permanently failed op completed") },
		OnError:    func(err error) { opErr = err },
	}); err != nil {
		t.Fatal(err)
	}
	abortTargetAt(sim, fs, f.Targets[0].ID, 0.25) // never recovered
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(opErr, ErrRetriesExhausted) {
		t.Fatalf("error %v does not wrap ErrRetriesExhausted", opErr)
	}
	var ioErr *IOFailedError
	if !errors.As(opErr, &ioErr) {
		t.Fatalf("error = %v, want *IOFailedError", opErr)
	}
	if ioErr.Attempts != cfg.RetryMax {
		t.Fatalf("Attempts = %d, want RetryMax = %d", ioErr.Attempts, cfg.RetryMax)
	}
	if st.RetriesScheduled != uint64(cfg.RetryMax) {
		t.Fatalf("Stats.RetriesScheduled = %d, want %d", st.RetriesScheduled, cfg.RetryMax)
	}
	if st.FailedOps != 1 {
		t.Fatalf("Stats.FailedOps = %d, want 1", st.FailedOps)
	}
}

// Flow names are part of the simulated result: simnet orders same-instant
// completions by (Name, seq). They are built by concatenation on the
// write path; this pins them to the format they always had,
// "<app>/<path>@<offset>" plus "#r<attempt>" on a re-issue.
func TestFlowNamesFirstAndRetriedAttempt(t *testing.T) {
	cfg := testConfig()
	cfg.RetryTimeout = 0.5
	cfg.RetryBackoffBase = 0.5
	cfg.RetryMax = 8
	sim, fs := newFS(t, cfg)
	client := fs.NewClient("n1", 0)
	f, err := fs.CreateWithPattern("/dir/f", StripePattern{Count: 1, ChunkSize: 512 * KiB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const app, offset = "app-7", 3 * MiB
	tg := f.Targets[0]
	flow, err := fs.StartWrite(&WriteOp{
		App: app, Client: client, File: f, Offset: offset, Length: 1764 * MiB, TransferSize: MiB,
		OnError: func(err error) { t.Error(err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	first := fmt.Sprintf("%s/%s@%d", app, f.Path, int64(offset))
	if flow.Name != first {
		t.Fatalf("first attempt flow name = %q, want %q", flow.Name, first)
	}
	// Down at 0.5 s, back at 0.75 s: the first retry re-issues at 1.0 s.
	abortTargetAt(sim, fs, tg.ID, 0.5)
	sim.After(0.75, func() {
		tg.SetFailed(false)
		_ = fs.Mgmtd().SetOnline(tg.ID, true)
	})
	var retried []string
	sim.After(1.1, func() {
		for _, fl := range fs.Network().FlowsUsing(tg.Resource()) {
			retried = append(retried, fl.Name)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s#r%d", first, 1)
	if len(retried) != 1 || retried[0] != want {
		t.Fatalf("retried attempt flows = %q, want [%q]", retried, want)
	}
}
