// Package simkernel implements a deterministic discrete-event simulation
// kernel: a virtual clock and a time-ordered event queue.
//
// All higher layers (network flows, storage transfers, the experiment
// protocol's waiting times) advance time exclusively through this kernel, so
// a whole campaign of "100 repetitions with 1-30 minute random waits" runs
// in milliseconds of wall time while preserving the temporal structure of
// the paper's execution protocol (§III-C).
//
// Determinism contract: events scheduled for the same virtual time fire in
// scheduling order (FIFO tie-break by a monotonically increasing sequence
// number). Two runs with the same seed therefore produce identical event
// orders.
package simkernel

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Never is a sentinel Time further in the future than any schedulable event.
const Never = Time(math.MaxFloat64)

// Event is a callback scheduled to fire at a virtual time.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// index within the heap, or -1 when not queued; lets Cancel be O(log n).
	index int
}

// When returns the virtual time the event is (or was) scheduled for.
func (e *Event) When() Time { return e.when }

// Scheduled reports whether the event is still pending in the queue.
func (e *Event) Scheduled() bool { return e.index >= 0 }

// eventHeap is a 4-ary min-heap ordered by (when, seq). The (when, seq)
// pair is a strict total order — seq is unique among queued events — so the
// pop sequence is fully determined by the *set* of queued events, not by
// the heap's internal layout: any correct heap (binary, 4-ary, sorted
// list) yields the identical event order. The 4-ary shape is a pure
// constant-factor optimization: campaigns spend ~20% of their time in
// queue maintenance, and halving the tree depth plus dropping the
// container/heap interface dispatch makes Reschedule (the rebalancer's
// per-flow hot call) markedly cheaper without touching determinism.
type eventHeap []*Event

// eventBefore is the queue's strict total order.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push appends e and restores the heap property.
func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.siftUp(e.index)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	q := *h
	e := q[i]
	n := len(q) - 1
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	*h = q[:n]
	if i != n {
		h.fix(i)
	}
	e.index = -1
}

// fix restores the heap property after q[i]'s time changed in place.
func (h eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h eventHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Earliest of the up-to-four children.
		min := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if eventBefore(h[k], h[min]) {
				min = k
			}
		}
		if !eventBefore(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].index = i
		i = min
	}
	h[i] = e
	e.index = i
}

// Stats counts kernel activity for the observability layer. It is a
// plain struct the owner attaches via SetStats; the kernel updates it
// behind a single nil check per site, so the disabled path costs one
// pointer comparison and the enabled path plain integer stores — no
// atomics (a Simulation is single-goroutine) and nothing that could
// perturb event order or timing.
type Stats struct {
	// Dispatched counts events fired by Step.
	Dispatched uint64
	// Scheduled counts At/After scheduling calls.
	Scheduled uint64
	// Reschedules counts in-place moves of still-pending events.
	Reschedules uint64
	// Requeues counts Reschedule calls that re-queued an already-fired
	// event (a fresh scheduling decision with a new sequence number).
	Requeues uint64
	// Cancels counts successful Cancel calls.
	Cancels uint64
	// HeapHighWater is the maximum queue length observed.
	HeapHighWater uint64
}

// Simulation owns a virtual clock and an event queue. The zero value is
// ready to use at time 0.
type Simulation struct {
	now     Time
	queue   eventHeap
	nextSeq uint64
	// executed counts fired events; useful for tests and runaway detection.
	executed uint64
	// MaxEvents, when non-zero, bounds the number of events Run will fire
	// before returning an error. It is a guard against model bugs that
	// schedule unboundedly.
	MaxEvents uint64
	// stats, when non-nil, receives kernel activity counts.
	stats *Stats
}

// SetStats attaches (or with nil detaches) an activity counter sink.
func (s *Simulation) SetStats(st *Stats) { s.stats = st }

// New returns a simulation starting at virtual time 0.
func New() *Simulation { return &Simulation{} }

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Executed returns the number of events fired so far.
func (s *Simulation) Executed() uint64 { return s.executed }

// Pending returns the number of events currently queued.
func (s *Simulation) Pending() int { return len(s.queue) }

// NextAt returns the virtual time of the earliest pending event, and
// whether one exists. Instant-boundary drivers (simnet's differential
// harnesses) use it to step the queue one whole instant at a
// time: fire events while NextAt stays equal, then compare state.
func (s *Simulation) NextAt() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].when, true
}

// Reserve pre-sizes the event queue's backing array to hold at least n
// pending events without further growth. Campaign drivers that know the
// churn's high-water mark (Stats.HeapHighWater from a previous run, or
// the job schedule's peak concurrency) call it once up front to skip the
// append-doubling copies of the spine; it never shrinks the queue and has
// no effect on event order.
func (s *Simulation) Reserve(n int) {
	if cap(s.queue) < n {
		q := make(eventHeap, len(s.queue), n)
		copy(q, s.queue)
		s.queue = q
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug.
func (s *Simulation) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simkernel: scheduling event at %v before now %v", t, s.now))
	}
	e := &Event{when: t, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	s.queue.push(e)
	if s.stats != nil {
		s.stats.Scheduled++
		if n := uint64(len(s.queue)); n > s.stats.HeapHighWater {
			s.stats.HeapHighWater = n
		}
	}
	return e
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulation) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simkernel: negative delay %v", d))
	}
	return s.At(s.now+Time(d), fn)
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired (or was already cancelled) is a no-op and returns false.
func (s *Simulation) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	s.queue.remove(e.index)
	if s.stats != nil {
		s.stats.Cancels++
	}
	return true
}

// Reschedule moves a pending event to a new absolute time. If the event is
// no longer pending it is re-queued (this is how flow completion events are
// adjusted when fair-share rates change).
//
// Contract: rescheduling a *pending* event keeps its original scheduling
// sequence, so its FIFO rank among equal-time events does not change — in
// particular, rescheduling to its current time is exactly a no-op. The
// component-scoped rebalancer depends on this: it skips the Reschedule
// call entirely for flows whose completion instant is unchanged, and that
// skip is only undetectable because calling Reschedule would not have
// perturbed the tie-break order either. Re-queueing an already-fired
// event, by contrast, assigns a fresh sequence: it is a new scheduling
// decision and fires after existing equal-time events.
func (s *Simulation) Reschedule(e *Event, t Time) {
	if t < s.now {
		panic(fmt.Sprintf("simkernel: rescheduling event to %v before now %v", t, s.now))
	}
	if e.index >= 0 {
		e.when = t
		s.queue.fix(e.index)
		if s.stats != nil {
			s.stats.Reschedules++
		}
		return
	}
	e.when = t
	e.seq = s.nextSeq
	s.nextSeq++
	s.queue.push(e)
	if s.stats != nil {
		s.stats.Requeues++
		if n := uint64(len(s.queue)); n > s.stats.HeapHighWater {
			s.stats.HeapHighWater = n
		}
	}
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false when the queue is empty.
func (s *Simulation) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.popMin()
	if e.when < s.now {
		panic("simkernel: queue produced an event in the past")
	}
	s.now = e.when
	s.executed++
	if s.stats != nil {
		s.stats.Dispatched++
	}
	e.fn()
	return true
}

// Run fires events until the queue drains. It returns an error if MaxEvents
// is exceeded.
func (s *Simulation) Run() error {
	for s.Step() {
		if s.MaxEvents != 0 && s.executed > s.MaxEvents {
			return fmt.Errorf("simkernel: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
	}
	return nil
}

// RunUntil fires events with time <= deadline, leaving later events queued.
// The clock ends at min(deadline, time of last fired event); it is advanced
// to the deadline if the queue drains or the next event is later.
func (s *Simulation) RunUntil(deadline Time) error {
	for len(s.queue) > 0 && s.queue[0].when <= deadline {
		s.Step()
		if s.MaxEvents != 0 && s.executed > s.MaxEvents {
			return fmt.Errorf("simkernel: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}
