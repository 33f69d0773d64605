package obs

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// This file is the collector→router→sink pipeline the rest of the
// observability layer hangs off (modelled on ClusterCockpit's
// cc-metric-collector split of concerns):
//
//	instrumented layers ─▶ Collector (per-worker shard)
//	                          │ Flush (once per repetition)
//	                          ▼
//	                       Router (relabel / filter rules)
//	                          ▼
//	                       Registry (commutatively merged model)
//	                          ▼ Snapshot
//	                       Sinks (JSON · Prometheus · Influx · trace · CSV)
//
// Determinism is the design driver, exactly as for the PR 5 registry:
//
//   - Collectors are single-goroutine shards. A campaign worker records a
//     whole repetition into its private collector and flushes once; the
//     flush folds counters (addition), maxima (max) and histograms
//     (bucket-wise addition) into the shared registry. Every fold is
//     commutative and associative, so the merged model — and therefore
//     every file a sink writes — is identical at any worker count and any
//     flush interleaving.
//   - The router rewrites or drops metric *names* only; it never touches
//     values, so routing cannot break the commutativity argument.
//   - Sinks render Snapshots: fully sorted, immutable copies of the
//     merged model. Two equal models render byte-identical files in every
//     encoding (JSON, Prometheus exposition, Influx line protocol).
//   - Wall-clock-derived quantities stay confined to the RuntimePrefix
//     namespace; progress ETAs (inherently wall-clock) are served by the
//     live endpoints only and never written to deterministic exports.
//
// Everything is nil-safe: a nil *Pipeline hands out nil *Collectors whose
// methods return immediately, so call sites need no enabled checks and
// the disabled path costs one pointer comparison (asserted by
// TestPipelineDisabledZeroCost and BenchmarkPipelineEmitDisabled).

// Kind classifies a metric point.
type Kind uint8

const (
	// KindCount accumulates by addition (monotone counter).
	KindCount Kind = iota
	// KindMax accumulates by maximum (high-water gauge).
	KindMax
	// KindSample accumulates into a log-2 histogram.
	KindSample
)

// Point is one typed metric observation. Points carry uint64 values like
// the registry they merge into; quantities that are conceptually floats
// (rates, residuals) are scaled to integers by their emitters so that
// merging stays exactly associative.
type Point struct {
	Name  string
	Kind  Kind
	Value uint64
}

// Recorder is the write interface shared by the Registry (direct,
// mutex-guarded) and the Collector (single-goroutine shard). Layers that
// flush per-repetition stats take a Recorder so the same code serves both
// the plain -metrics path and the pipeline.
type Recorder interface {
	Add(name string, v uint64)
	Max(name string, v uint64)
	Observe(name string, v uint64)
	MergeHist(name string, src *Log2Hist)
}

// Rule is one router rule, matched by metric-name prefix. The first
// matching rule wins: Drop discards the point, otherwise Rewrite (when
// non-empty) replaces the matched prefix. A zero Prefix matches every
// name.
type Rule struct {
	Prefix  string
	Drop    bool
	Rewrite string
}

// route applies the first matching rule. The returned bool is false when
// the point should be dropped.
func route(rules []Rule, name string) (string, bool) {
	for _, r := range rules {
		if !strings.HasPrefix(name, r.Prefix) {
			continue
		}
		if r.Drop {
			return "", false
		}
		if r.Rewrite != "" {
			return r.Rewrite + name[len(r.Prefix):], true
		}
		return name, true
	}
	return name, true
}

// runState tracks one campaign's live progress: repetitions completed out
// of a known total. Completions accumulate by addition, so progress is as
// order-independent as every other pipeline quantity; the wall-clock
// start (for ETA estimation) is live-endpoint-only state.
type runState struct {
	label     string
	total     uint64
	done      uint64
	wallStart time.Time
}

// RunStatus is the exported view of one campaign's progress. EtaS and
// RateRepsPerS derive from wall-clock time and are therefore only
// populated by live introspection (Pipeline.Runs, the /runs endpoint) —
// deterministic exports carry Done/Total only.
type RunStatus struct {
	Label string `json:"label"`
	Done  uint64 `json:"completed"`
	Total uint64 `json:"total"`
	// RateRepsPerS is the mean completion rate since the run started.
	RateRepsPerS float64 `json:"rate_reps_per_s,omitempty"`
	// EtaS estimates the remaining seconds at the mean rate (0 when done
	// or unknown).
	EtaS float64 `json:"eta_s,omitempty"`
}

// Sink consumes snapshots of the merged metric model. Flush may be called
// any number of times with intermediate snapshots (live file tailing, at
// most once per liveSinkInterval of wall time — see FlushSinks); Close
// receives the final snapshot and must release resources. Sinks are
// called with the pipeline's sink mutex held, never concurrently.
type Sink interface {
	Name() string
	Flush(snap *Snapshot) error
	Close(snap *Snapshot) error
}

// Pipeline owns the merged registry, the optional tracer, the router
// rules, the sink set and the campaign progress table. All methods are
// safe on a nil *Pipeline.
type Pipeline struct {
	reg *Registry

	mu     sync.Mutex
	rules  []Rule
	sinks  []Sink
	tracer *Tracer
	runs   map[string]*runState
	order  []string
	free   []*Collector
	// nextRender is the wall time from which FlushSinks renders again
	// (zero until the first render, so the first call always renders).
	nextRender time.Time
	// now reads the wall clock; tests substitute a fake.
	now func() time.Time

	// sinkMu serialises every sink call. Renders hold it instead of mu,
	// so collectors and RepDone never wait on a file write.
	sinkMu sync.Mutex
}

// liveSinkInterval is the least wall time between two FlushSinks
// renders. Live readers poll in wall time (watch, or a node-exporter
// textfile collector scraping every 15 s or more), so rewriting the files
// after each of thousands of sub-millisecond repetitions serves none of
// them.
const liveSinkInterval = time.Second

// NewPipeline returns an empty pipeline with a fresh registry, no rules
// and no sinks.
func NewPipeline() *Pipeline {
	return &Pipeline{
		reg:  NewRegistry(),
		runs: make(map[string]*runState),
		now:  time.Now,
	}
}

// Registry returns the pipeline's merged metric model (nil for a nil
// pipeline). Direct registry writes bypass the router; they are how
// pre-pipeline call sites keep working unchanged.
func (p *Pipeline) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// EnableTrace creates (once) and returns the pipeline's tracer. Trace and
// utilization-CSV sinks call it when configured; without such a sink the
// pipeline carries no tracer and repetitions skip event recording.
func (p *Pipeline) EnableTrace() *Tracer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tracer == nil {
		p.tracer = NewTracer()
	}
	return p.tracer
}

// Tracer returns the pipeline's tracer, nil unless EnableTrace ran.
func (p *Pipeline) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracer
}

// SetRules installs the router's relabel/filter rules. Install before
// emission starts; rules are applied at collector flush time.
func (p *Pipeline) SetRules(rules []Rule) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.rules = rules
	p.mu.Unlock()
}

// AddSink appends a sink to the fan-out set.
func (p *Pipeline) AddSink(s Sink) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.sinks = append(p.sinks, s)
	p.mu.Unlock()
}

// Collector hands out a collector shard (recycled from the flushed pool
// when possible). A nil pipeline returns a nil collector, whose methods
// all no-op — the disabled path.
func (p *Pipeline) Collector() *Collector {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	return &Collector{
		p:        p,
		counters: make(map[string]uint64),
		maxima:   make(map[string]uint64),
		hists:    make(map[string]*histogram),
	}
}

// StartRun registers (idempotently) a campaign label with its total
// repetition count for progress tracking.
func (p *Pipeline) StartRun(label string, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.runs[label]; ok {
		return
	}
	p.runs[label] = &runState{label: label, total: uint64(total), wallStart: time.Now()}
	p.order = append(p.order, label)
}

// RepDone streams one completed repetition for the labelled run. Safe to
// call from any campaign worker; completions merge by addition.
func (p *Pipeline) RepDone(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if r := p.runs[label]; r != nil {
		r.done++
	}
	p.mu.Unlock()
}

// Runs returns the live progress table in StartRun order, with wall-clock
// rate and ETA estimates filled in (the /runs endpoint's payload).
func (p *Pipeline) Runs() []RunStatus {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]RunStatus, 0, len(p.order))
	for _, label := range p.order {
		r := p.runs[label]
		st := RunStatus{Label: r.label, Done: r.done, Total: r.total}
		if elapsed := time.Since(r.wallStart).Seconds(); elapsed > 0 && r.done > 0 {
			st.RateRepsPerS = float64(r.done) / elapsed
			if r.done < r.total {
				st.EtaS = float64(r.total-r.done) / st.RateRepsPerS
			}
		}
		out = append(out, st)
	}
	return out
}

// Snapshot assembles the sorted, immutable view of the merged model plus
// the progress table (Done/Total only — no wall-clock derivatives).
func (p *Pipeline) Snapshot() *Snapshot {
	if p == nil {
		return &Snapshot{}
	}
	snap := p.reg.Snapshot()
	p.mu.Lock()
	for _, label := range p.order {
		r := p.runs[label]
		snap.Runs = append(snap.Runs, RunStatus{Label: r.label, Done: r.done, Total: r.total})
	}
	p.mu.Unlock()
	return snap
}

// FlushSinks refreshes the sinks' live view between repetitions: it
// renders the current snapshot into every sink, but at most once per
// liveSinkInterval of wall time and otherwise returns at once. The first
// call of a pipeline always renders, so an unwritable sink fails the run
// at its first repetition. The due check and the new render time are
// taken together under mu, so concurrent workers render at most once per
// interval; the render itself holds only the sink mutex. Intermediate
// files show whatever repetitions had finished when they were rendered;
// the final state is written by Close.
func (p *Pipeline) FlushSinks() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	t := p.now()
	sinks := p.sinks
	due := len(sinks) > 0 && !t.Before(p.nextRender)
	if due {
		p.nextRender = t.Add(liveSinkInterval)
	}
	p.mu.Unlock()
	if !due {
		return nil
	}
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	snap := p.Snapshot()
	var errs []error
	for _, s := range sinks {
		if err := s.Flush(snap); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close renders the final snapshot into every sink and closes them,
// whatever FlushSinks last rendered. Call it on failed runs too: between
// throttled renders the files may lag the completed repetitions by up to
// liveSinkInterval. The pipeline must not be used afterwards.
func (p *Pipeline) Close() error {
	if p == nil {
		return nil
	}
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	p.mu.Lock()
	sinks := p.sinks
	p.sinks = nil
	p.mu.Unlock()
	snap := p.Snapshot()
	var errs []error
	for _, s := range sinks {
		if err := s.Close(snap); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Collector is a per-worker metric shard: a single goroutine records a
// repetition's points into plain maps (no locks, no atomics), then Flush
// routes and folds them into the pipeline's registry in one critical
// section. The hot emit path performs zero allocations once a metric's
// cell exists (BenchmarkPipelineEmit); all methods no-op on a nil
// receiver.
type Collector struct {
	p        *Pipeline
	counters map[string]uint64
	maxima   map[string]uint64
	hists    map[string]*histogram
}

// Emit records one typed point.
func (c *Collector) Emit(pt Point) {
	if c == nil {
		return
	}
	switch pt.Kind {
	case KindCount:
		c.counters[pt.Name] += pt.Value
	case KindMax:
		if pt.Value > c.maxima[pt.Name] {
			c.maxima[pt.Name] = pt.Value
		}
	case KindSample:
		c.hist(pt.Name).observe(pt.Value)
	}
}

// Add increments the named counter by v.
func (c *Collector) Add(name string, v uint64) {
	if c == nil {
		return
	}
	c.counters[name] += v
}

// Max raises the named high-water gauge to v if v exceeds it.
func (c *Collector) Max(name string, v uint64) {
	if c == nil {
		return
	}
	if v > c.maxima[name] {
		c.maxima[name] = v
	}
}

// Observe records one histogram sample.
func (c *Collector) Observe(name string, v uint64) {
	if c == nil {
		return
	}
	c.hist(name).observe(v)
}

// MergeHist folds a repetition-local histogram into the shard.
func (c *Collector) MergeHist(name string, src *Log2Hist) {
	if c == nil || src.Count == 0 {
		return
	}
	h := c.hist(name)
	h.count += src.Count
	h.sum += src.Sum
	for i, b := range src.Buckets {
		h.buckets[i] += b
	}
}

func (c *Collector) hist(name string) *histogram {
	h := c.hists[name]
	if h == nil {
		h = &histogram{}
		c.hists[name] = h
	}
	return h
}

// Flush routes the shard's contents through the pipeline's rules and
// folds them into the shared registry, then clears the shard for reuse.
// Folding is commutative (add/max/bucket-add), so concurrent workers may
// flush in any order and produce the same merged model.
func (c *Collector) Flush() {
	if c == nil || c.p == nil {
		return
	}
	p := c.p
	p.mu.Lock()
	rules := p.rules
	p.mu.Unlock()
	r := p.reg
	r.mu.Lock()
	for k, v := range c.counters {
		if name, ok := route(rules, k); ok {
			r.counters[name] += v
		}
	}
	for k, v := range c.maxima {
		if name, ok := route(rules, k); ok {
			if v > r.maxima[name] {
				r.maxima[name] = v
			}
		}
	}
	for k, h := range c.hists {
		name, ok := route(rules, k)
		if !ok {
			continue
		}
		dst := r.hists[name]
		if dst == nil {
			dst = &histogram{}
			r.hists[name] = dst
		}
		dst.count += h.count
		dst.sum += h.sum
		for i, b := range h.buckets {
			dst.buckets[i] += b
		}
	}
	r.mu.Unlock()
	clear(c.counters)
	clear(c.maxima)
	clear(c.hists)
}

// Release flushes the shard and returns it to the pipeline's pool.
func (c *Collector) Release() {
	if c == nil || c.p == nil {
		return
	}
	c.Flush()
	p := c.p
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}
