// Package eventq implements the discrete-event core used by the packet
// network simulator: a time-ordered queue of callbacks with a simulated
// clock. Events scheduled for the same instant fire in the order they were
// scheduled, which keeps simulations deterministic.
//
// The queue is a single 4-ary min-heap over pooled nodes, ordered by
// (time, seq). Every event carries a strictly increasing seq, so the order
// is total and the pop order is the same on every run and for every heap
// shape: FuzzEventQueue and the conformance replay digests pin it. Each
// node records its heap index, so Cancel removes it in O(log n) instead of
// leaving a tombstone, and stale Handles are caught by comparing seq.
//
// A heap fits the simulator's traffic. The paper-shaped experiments keep
// tens of events pending with gaps of hundreds of microseconds, where a
// sift touches two or three levels; a timing wheel at that occupancy
// spends most of its time walking empty slots. At thousands pending (one
// link carrying thousands of flows) the 4-ary heap is still only six
// levels deep. DESIGN.md §15 records the measurements.
package eventq

import (
	"fmt"
	"math"
)

// node carries one scheduled callback. Nodes are pooled on a free list, so
// steady-state scheduling does not allocate. fn is always non-nil while the
// node is pending; arg is the value it receives. Plain closures scheduled
// via At are dispatched through a trampoline that stores the closure itself
// in arg — func values are pointer-shaped, so this boxing never allocates.
type node struct {
	time float64
	seq  uint64
	fn   func(any)
	arg  any
	next *node // free-list link
	idx  int32 // heap position while pending; -1 once fired or cancelled
}

// Handle identifies a scheduled event for cancellation. The zero Handle is
// valid and never cancels anything. Handles are safe to keep after the
// event fires or is cancelled: the embedded seq is compared against the
// node, so a stale Handle (event fired, cancelled, or node reused) simply
// makes Cancel return false.
type Handle struct {
	n   *node
	seq uint64
}

// Queue is a discrete-event queue. The zero value is ready to use.
type Queue struct {
	now float64
	seq uint64
	// steps counts executed events, for runaway detection in tests.
	steps uint64

	heap []*node // (time, seq) 4-ary min-heap of pending events
	free *node   // recycled nodes
}

// Now returns the current simulated time in seconds.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Steps returns the number of events executed so far.
func (q *Queue) Steps() uint64 { return q.steps }

// runNullary adapts a plain closure to the internal func(any) calling
// convention.
func runNullary(arg any) { arg.(func())() }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a simulation bug (causality violation). So do NaN and
// +Inf times: "never" is not a schedulable instant — callers must treat a
// server.Never completion as a stall and handle it themselves rather than
// park an event at infinity that Run could never reach.
func (q *Queue) At(t float64, fn func()) { q.push(t, runNullary, fn) }

// AtCall schedules fn(arg) to run at absolute time t. It is the
// allocation-free fast path: unlike At, which usually costs one closure
// allocation at the call site to capture state, AtCall carries the state in
// arg (typically a pointer, which boxes without allocating), so hot loops
// — per-frame link completions, source emissions — schedule events with
// zero allocations.
func (q *Queue) AtCall(t float64, fn func(any), arg any) {
	if fn == nil {
		panic("eventq: AtCall requires a callback")
	}
	q.push(t, fn, arg)
}

// After schedules fn to run d seconds from now.
func (q *Queue) After(d float64, fn func()) { q.At(q.now+d, fn) }

// AfterCall schedules fn(arg) to run d seconds from now (see AtCall).
func (q *Queue) AfterCall(d float64, fn func(any), arg any) { q.AtCall(q.now+d, fn, arg) }

// Schedule is AtCall returning a Handle for cancellation.
func (q *Queue) Schedule(t float64, fn func(any), arg any) Handle {
	if fn == nil {
		panic("eventq: Schedule requires a callback")
	}
	return q.push(t, fn, arg)
}

// ScheduleAfter is AfterCall returning a Handle for cancellation.
func (q *Queue) ScheduleAfter(d float64, fn func(any), arg any) Handle {
	return q.Schedule(q.now+d, fn, arg)
}

// Cancel removes a scheduled event in O(log n). It reports whether the
// event was still pending: a Handle whose event already fired, was already
// cancelled, or is the zero Handle returns false.
func (q *Queue) Cancel(h Handle) bool {
	n := h.n
	if n == nil || n.seq != h.seq || n.idx < 0 {
		return false
	}
	q.remove(int(n.idx))
	q.release(n)
	return true
}

func (q *Queue) push(t float64, fn func(any), arg any) Handle {
	if t < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, q.now))
	}
	if math.IsNaN(t) {
		panic("eventq: scheduling at NaN")
	}
	if math.IsInf(t, 1) {
		panic("eventq: scheduling at +Inf; an event at 'never' would wedge Run — treat server.Never as a stall instead of scheduling it")
	}
	q.seq++
	n := q.alloc()
	n.time = t
	n.seq = q.seq
	n.fn = fn
	n.arg = arg
	q.heap = append(q.heap, n)
	q.siftUp(len(q.heap) - 1)
	return Handle{n: n, seq: n.seq}
}

// nodeChunk is how many nodes one free-list refill allocates. Nodes are
// never returned to the runtime, so chunking trades a little footprint
// for allocation counts that amortize like slice doubling does — a fresh
// queue scheduling N events costs N/64 node allocations, not N.
const nodeChunk = 64

func (q *Queue) alloc() *node {
	if q.free == nil {
		chunk := make([]node, nodeChunk)
		for i := range chunk[:nodeChunk-1] {
			chunk[i].next = &chunk[i+1]
		}
		q.free = &chunk[0]
	}
	n := q.free
	q.free = n.next
	n.next = nil
	return n
}

func (q *Queue) release(n *node) {
	// Keep n.seq: stale Handles compare against it until the node is
	// reused, and reuse bumps it via push's q.seq++ assignment.
	n.fn = nil
	n.arg = nil
	n.idx = -1
	n.next = q.free
	q.free = n
}

// PeekTime returns the time of the earliest pending event. ok is false if
// the queue is empty.
func (q *Queue) PeekTime() (t float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// Step executes the earliest pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	n := q.heap[0]
	q.remove(0)
	q.now = n.time
	q.steps++
	fn, arg := n.fn, n.arg
	q.release(n)
	fn(arg)
	return true
}

// Run executes events until the queue is empty.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled exactly at t do run.
func (q *Queue) RunUntil(t float64) {
	for len(q.heap) > 0 && q.heap[0].time <= t {
		q.Step()
	}
	if t > q.now {
		q.now = t
	}
}

// RunBefore executes events with time strictly < t, then advances the
// clock to t. It is the window primitive for conservative parallel
// execution (topo.Sharded): a domain may safely run every event before its
// lookahead horizon, and the horizon itself belongs to the next window.
func (q *Queue) RunBefore(t float64) {
	for len(q.heap) > 0 && q.heap[0].time < t {
		q.Step()
	}
	if t > q.now {
		q.now = t
	}
}

// RunFor executes events for d seconds of simulated time from now.
func (q *Queue) RunFor(d float64) { q.RunUntil(q.now + d) }

// --- (time, seq) 4-ary heap: the children of i are 4i+1 .. 4i+4 ---

func nodeBefore(a, b *node) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// remove deletes the node at heap index i, preserving heap order and idx
// bookkeeping. The caller releases the node.
func (q *Queue) remove(i int) {
	h := q.heap
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].idx = int32(i)
	}
	h[last] = nil
	q.heap = h[:last]
	if i < last {
		moved := h[i]
		q.siftUp(i)
		if int(moved.idx) == i {
			q.siftDown(i)
		}
	}
}

func (q *Queue) siftUp(i int) {
	h := q.heap
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !nodeBefore(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = int32(i)
		i = parent
	}
	h[i] = n
	n.idx = int32(i)
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := h[i]
	sz := len(h)
	for {
		c := 4*i + 1
		if c >= sz {
			break
		}
		min := c
		end := c + 4
		if end > sz {
			end = sz
		}
		for j := c + 1; j < end; j++ {
			if nodeBefore(h[j], h[min]) {
				min = j
			}
		}
		if !nodeBefore(h[min], n) {
			break
		}
		h[i] = h[min]
		h[i].idx = int32(i)
		i = min
	}
	h[i] = n
	n.idx = int32(i)
}
