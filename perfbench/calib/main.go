// Command calib is the benchmark's fixed reference computation. It does the
// kinds of work the simulator does (small allocations and GC, an event
// heap, map churn, a progressive-filling pass over flows sharing
// resources, float formatting) on inputs that never change, and prints the
// wall and CPU seconds it took and a checksum:
//
//	{"s": 0.1043, "cpu_s": 0.1101, "checksum": 827469}
//
// Its code does not depend on the repository, so its time moves only with
// the speed of the host. The benchmark runs it between the timed
// executions and scales their times by it.
package main

import (
	"container/heap"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	rounds    = 12
	flows     = 4000
	resources = 64
	fillEvery = 200 // flows started between two filling passes
)

type flow struct {
	uses []int
	rate float64
	name string
}

type event struct {
	t   float64
	seq int
	f   *flow
}

type events []*event

func (h events) Len() int { return len(h) }
func (h events) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h events) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *events) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// round starts flows on random resources, re-shares the resources among
// the live flows every fillEvery starts, then drains the events in time
// order. It returns the total length of the formatted rates.
func round(seed uint64) int {
	x := seed
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	caps := make([]float64, resources)
	for i := range caps {
		caps[i] = 100 + float64(next()%900)
	}
	h := &events{}
	live := map[string]*flow{}
	for i := 0; i < flows; i++ {
		f := &flow{uses: make([]int, 1+next()%6), name: "f" + strconv.Itoa(i)}
		for k := range f.uses {
			f.uses[k] = int(next() % resources)
		}
		live[f.name] = f
		heap.Push(h, &event{t: float64(next()%1000) / 7, seq: i, f: f})
		if i%fillEvery == fillEvery-1 {
			fill(caps, live)
		}
	}
	n := 0
	for h.Len() > 0 {
		e := heap.Pop(h).(*event)
		n += len(strconv.FormatFloat(e.f.rate*e.t, 'g', -1, 64))
		delete(live, e.f.name)
	}
	return n
}

// fill gives every live flow the smallest fair share among its resources.
func fill(caps []float64, live map[string]*flow) {
	load := make([]float64, len(caps))
	fs := make([]*flow, 0, len(live))
	for _, f := range live {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(a, b int) bool { return fs[a].name < fs[b].name })
	for _, f := range fs {
		for _, r := range f.uses {
			load[r]++
		}
	}
	for _, f := range fs {
		share := math.Inf(1)
		for _, r := range f.uses {
			share = math.Min(share, caps[r]/load[r])
		}
		f.rate = share
	}
}

// cpuSeconds is the process's user+sys time so far, GC workers included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func main() {
	t0, c0 := time.Now(), cpuSeconds()
	sum := 0
	for i := uint64(1); i <= rounds; i++ {
		sum += round(i)
	}
	s, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	json.NewEncoder(os.Stdout).Encode(map[string]any{"s": s, "cpu_s": cpu, "checksum": sum})
}
