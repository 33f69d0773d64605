package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock pins a pipeline's wall clock so the FlushSinks cadence can be
// driven without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func pinClock(p *Pipeline) *fakeClock {
	c := &fakeClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
	p.now = c.now
	return c
}

// addCounter records v into name through a collector shard, the way a
// campaign repetition does.
func addCounter(p *Pipeline, name string, v uint64) {
	c := p.Collector()
	c.Add(name, v)
	c.Release()
}

func readFiles(t *testing.T, paths []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(paths))
	for i, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestFlushSinksRendersOncePerInterval walks the live-render cadence: the
// first FlushSinks writes every file sink, a call inside the interval
// leaves the files untouched, a call once the interval has passed
// re-renders, and Close writes the final state even inside an interval.
func TestFlushSinksRendersOncePerInterval(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "m.json"),
		filepath.Join(dir, "m.prom"),
		filepath.Join(dir, "m.lp"),
	}
	p := NewPipeline()
	clock := pinClock(p)
	p.AddSink(NewJSONSink(paths[0]))
	p.AddSink(NewPromSink(paths[1]))
	p.AddSink(NewInfluxSink(paths[2]))
	render := func(v uint64) [][]byte {
		snap := &Snapshot{Counters: []MetricValue{{Name: "a/reps", Value: v}}}
		var out [][]byte
		for _, enc := range []func(*bytes.Buffer) error{
			func(b *bytes.Buffer) error { return EncodeJSON(b, snap) },
			func(b *bytes.Buffer) error { return EncodeProm(b, snap) },
			func(b *bytes.Buffer) error { return EncodeInflux(b, snap, 0) },
		} {
			var b bytes.Buffer
			if err := enc(&b); err != nil {
				t.Fatal(err)
			}
			out = append(out, b.Bytes())
		}
		return out
	}
	check := func(step string, want [][]byte) {
		t.Helper()
		for i, got := range readFiles(t, paths) {
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: %s =\n%s\nwant\n%s", step, paths[i], got, want[i])
			}
		}
	}

	addCounter(p, "a/reps", 1)
	if err := p.FlushSinks(); err != nil {
		t.Fatal(err)
	}
	check("first flush", render(1))

	addCounter(p, "a/reps", 1)
	clock.t = clock.t.Add(liveSinkInterval - time.Nanosecond)
	if err := p.FlushSinks(); err != nil {
		t.Fatal(err)
	}
	check("flush inside the interval", render(1))

	clock.t = clock.t.Add(time.Nanosecond)
	if err := p.FlushSinks(); err != nil {
		t.Fatal(err)
	}
	check("flush after the interval", render(2))

	addCounter(p, "a/reps", 1)
	if err := p.FlushSinks(); err != nil {
		t.Fatal(err)
	}
	check("second flush inside the interval", render(2))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	check("close", render(3))
}

// TestFlushSinksFirstCallSurfacesSinkError: a sink path under a missing
// directory fails the very first FlushSinks, so a campaign with an
// unwritable -metrics path fails at its first repetition.
func TestFlushSinksFirstCallSurfacesSinkError(t *testing.T) {
	p := NewPipeline()
	pinClock(p)
	p.AddSink(NewJSONSink(filepath.Join(t.TempDir(), "missing", "m.json")))
	addCounter(p, "a/reps", 1)
	err := p.FlushSinks()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("first FlushSinks error = %v, want the sink's open error", err)
	}
}

// countingSink counts the calls it receives. The counts are plain ints:
// under -race, any two sink calls that were not serialised by the
// pipeline's sink mutex show up as a data race.
type countingSink struct {
	flushes, closes int
	last            uint64
}

func (s *countingSink) Name() string { return "counting" }

func (s *countingSink) Flush(snap *Snapshot) error {
	s.flushes++
	s.last = counterValue(snap, "a/reps")
	return nil
}

func (s *countingSink) Close(snap *Snapshot) error {
	s.closes++
	s.last = counterValue(snap, "a/reps")
	return nil
}

func counterValue(snap *Snapshot, name string) uint64 {
	for _, mv := range snap.Counters {
		if mv.Name == name {
			return mv.Value
		}
	}
	return 0
}

// TestFlushSinksConcurrentRendersOncePerInterval: N workers finishing
// repetitions together render at most once per interval, whoever wins
// the race; Close renders the complete final state once.
func TestFlushSinksConcurrentRendersOncePerInterval(t *testing.T) {
	const workers, intervals = 64, 20
	p := NewPipeline()
	clock := pinClock(p)
	sink := &countingSink{}
	p.AddSink(sink)
	for i := 0; i < intervals; i++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				addCounter(p, "a/reps", 1)
				<-start // release every worker's FlushSinks at once
				if err := p.FlushSinks(); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if sink.flushes != i+1 {
			t.Fatalf("interval %d: %d renders, want %d", i, sink.flushes, i+1)
		}
		clock.t = clock.t.Add(liveSinkInterval)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closes != 1 || sink.last != workers*intervals {
		t.Fatalf("close: %d closes, final a/reps = %d; want 1 and %d", sink.closes, sink.last, workers*intervals)
	}
}
