package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
)

// Span names: one per layer boundary the traced run wraps.
const (
	spStep         = iota // eventq.Queue.Step, driven by the benchmark
	spSimDeliver          // sim.Link.Deliver (source→link, link→link)
	spSchedEnq            // sched.Interface.Enqueue
	spSchedDeq            // sched.Interface.Dequeue
	spServerFinish        // server.Process.Finish
	spSinkDeliver         // sim.Sink.Deliver
	spClock               // sched.Clock.Now
	spRTEnq               // rt.Runtime.EnqueueBatch
	spRTDeq               // rt.Runtime.DequeueBatch
	spSubmit              // rt.Admitter.Submit
	spFinish              // rt.Ticket.Finish
	numSpans
)

var spanNames = [numSpans]string{
	"eventq.step", "sim.deliver", "sched.enqueue", "sched.dequeue",
	"server.finish", "sink.deliver", "clock.now", "rt.enqueue_batch",
	"rt.dequeue_batch", "admit.submit", "admit.finish",
}

// epoch is the common zero of every span timestamp, so spans recorded on
// different goroutines share one time axis.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// recorder receives the spans of wrapped calls. begin returns the span's
// start, which the caller hands back to end.
type recorder interface {
	begin(name int) int64
	end(name int, start int64)
}

// spanAgg sums the spans of one name: count, total duration, and self
// time (duration minus the child spans recorded inside it).
type spanAgg struct {
	n, total, self int64
}

type frame struct {
	name         int
	start, child int64
	log          int32 // index into the span log, -1 when not logged
}

// rawSpan is one logged span: name, start, end and the log index of its
// parent (-1 for a root span).
type rawSpan struct {
	name       int
	parent     int32
	start, end int64
}

// spanLogCap bounds the spans kept verbatim per tracer; every span is
// still counted in the aggregates.
const spanLogCap = 1 << 15

// tracer records nested spans for one goroutine. Self time is computed as
// each span ends, so the aggregates need no stored spans; the first
// spanLogCap spans are also kept verbatim and written out at the end of
// the run. A tracer never allocates once built.
type tracer struct {
	stack []frame
	agg   [numSpans]spanAgg
	log   []rawSpan
}

func newTracer() *tracer {
	return &tracer{stack: make([]frame, 0, 32), log: make([]rawSpan, 0, spanLogCap)}
}

func (t *tracer) begin(name int) int64 {
	start := nowNS()
	idx := int32(-1)
	if len(t.log) < cap(t.log) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].log
		}
		idx = int32(len(t.log))
		t.log = append(t.log, rawSpan{name: name, parent: parent, start: start})
	}
	t.stack = append(t.stack, frame{name: name, start: start, log: idx})
	return start
}

func (t *tracer) end(name int, _ int64) {
	now := nowNS()
	n := len(t.stack) - 1
	f := t.stack[n]
	if f.name != name {
		panic(fmt.Sprintf("perfbench: span %s ended inside %s", spanNames[name], spanNames[f.name]))
	}
	dur := now - f.start
	a := &t.agg[name]
	a.n++
	a.total += dur
	a.self += dur - f.child
	t.stack = t.stack[:n]
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if f.log >= 0 {
		t.log[f.log].end = now
	}
}

// sharedLeaf records leaf spans (spans with no children) from several
// goroutines at once. Leaf spans recorded here are not subtracted from any
// parent automatically; the caller attributes them.
type sharedLeaf struct {
	n, total [numSpans]atomic.Int64
}

func (s *sharedLeaf) begin(int) int64 { return nowNS() }

func (s *sharedLeaf) end(name int, start int64) {
	s.n[name].Add(1)
	s.total[name].Add(nowNS() - start)
}

// totals folds per-goroutine tracers and a shared leaf recorder into one
// set of aggregates.
func totals(leaf *sharedLeaf, ts ...*tracer) [numSpans]spanAgg {
	var out [numSpans]spanAgg
	for _, t := range ts {
		for i := range out {
			out[i].n += t.agg[i].n
			out[i].total += t.agg[i].total
			out[i].self += t.agg[i].self
		}
	}
	if leaf != nil {
		for i := range out {
			n, tot := leaf.n[i].Load(), leaf.total[i].Load()
			out[i].n += n
			out[i].total += tot
			out[i].self += tot
		}
	}
	return out
}

// writeSpans writes the logged spans as tab-separated lines (tracer,
// span id, parent id, name, start ns, end ns).
func writeSpans(path string, ts ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\tid\tparent\tname\tstart_ns\tend_ns")
	for ti, t := range ts {
		for i, s := range t.log {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", ti, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spin busy-waits for d nanoseconds on the monotonic clock.
func spin(d int64) {
	for start := nowNS(); nowNS()-start < d; {
	}
}

// tracedSched wraps a discipline, recording a span per Enqueue and
// Dequeue and sampling the backlog at each enqueue. It forwards
// sched.PoolSafe so links and runtimes keep recycling packets. spinNS adds
// a fixed busy-wait inside each Enqueue span; only the attribution test
// sets it.
type tracedSched struct {
	inner  sched.Interface
	rec    recorder
	spinNS int64

	enqCalls, backlogSum int64
}

// tracedSchedVT is tracedSched for disciplines with a system virtual time,
// which it forwards as sched.VirtualTimer.
type tracedSchedVT struct {
	*tracedSched
	vt sched.VirtualTimer
}

func (s tracedSchedVT) V() float64 { return s.vt.V() }

// wrapSched returns the traced wrapper of inner (as a sched.Interface that
// implements VirtualTimer exactly when inner does) and its counters.
func wrapSched(inner sched.Interface, rec recorder, spinNS int64) (sched.Interface, *tracedSched) {
	ts := &tracedSched{inner: inner, rec: rec, spinNS: spinNS}
	if vt, ok := inner.(sched.VirtualTimer); ok {
		return tracedSchedVT{ts, vt}, ts
	}
	return ts, ts
}

func (s *tracedSched) AddFlow(flow int, w float64) error { return s.inner.AddFlow(flow, w) }
func (s *tracedSched) RemoveFlow(flow int) error         { return s.inner.RemoveFlow(flow) }
func (s *tracedSched) Len() int                          { return s.inner.Len() }
func (s *tracedSched) QueuedBytes(flow int) float64      { return s.inner.QueuedBytes(flow) }
func (s *tracedSched) PacketPoolSafe() bool              { return sched.PoolSafeScheduler(s.inner) }

func (s *tracedSched) Enqueue(now float64, p *sched.Packet) error {
	s.enqCalls++
	s.backlogSum += int64(s.inner.Len())
	t := s.rec.begin(spSchedEnq)
	if s.spinNS > 0 {
		spin(s.spinNS)
	}
	err := s.inner.Enqueue(now, p)
	s.rec.end(spSchedEnq, t)
	return err
}

func (s *tracedSched) Dequeue(now float64) (*sched.Packet, bool) {
	t := s.rec.begin(spSchedDeq)
	p, ok := s.inner.Dequeue(now)
	s.rec.end(spSchedDeq, t)
	return p, ok
}

// tracedProc wraps a link's capacity process.
type tracedProc struct {
	inner server.Process
	rec   recorder
}

func (p tracedProc) Finish(t, bytes float64) float64 {
	s := p.rec.begin(spServerFinish)
	end := p.inner.Finish(t, bytes)
	p.rec.end(spServerFinish, s)
	return end
}

func (p tracedProc) MeanRate() float64 { return p.inner.MeanRate() }

// tracedConsumer records a span of the given name around each Deliver.
type tracedConsumer struct {
	next sim.Consumer
	rec  recorder
	name int
}

func (c tracedConsumer) Deliver(f *sim.Frame) {
	s := c.rec.begin(c.name)
	c.next.Deliver(f)
	c.rec.end(c.name, s)
}

// tracedClock wraps the clock a runtime reads, counting reads.
type tracedClock struct {
	inner sched.Clock
	rec   recorder
}

func (c tracedClock) Now() float64 {
	s := c.rec.begin(spClock)
	v := c.inner.Now()
	c.rec.end(spClock, s)
	return v
}
