package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/eventq"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/units"
)

// roundPkts is the number of delivered packets per latency round.
const roundPkts = 64

// minPasses is the fewest passes an untraced run makes, so that setup_s
// is a median of several set-ups even in short runs.
const minPasses = 5

// simSpec describes a simulator workload. A pass builds the network,
// runs its sources to the workload's horizon, then drains every queue.
type simSpec struct {
	name  string
	flows int
	build func(n *simNet, seed int64)
	// digestSeed1 is the schedule digest of one pass at seed 1.
	digestSeed1 digest
}

// sampleBuf keeps raw samples up to its preallocated capacity, so that
// recording never allocates inside the timed phase.
type sampleBuf struct {
	s       []int64
	dropped int64
}

func (b *sampleBuf) add(v int64) {
	if len(b.s) < cap(b.s) {
		b.s = append(b.s, v)
	} else {
		b.dropped++
	}
}

// simNet is one pass's network plus the benchmark's probes on it: the
// per-flow generated count at each source, the schedule digest and round
// timer at the sink, and (traced) the layer wrappers.
type simNet struct {
	q      *eventq.Queue
	links  []*sim.Link
	sink   *sim.Sink
	sinkIn sim.Consumer
	gen    []int64
	size   []float64 // packet size per flow

	dig       digest
	delivered int64
	rounds    *sampleBuf
	lastRound int64

	tr     *tracer // nil when untraced
	spinNS int64
	scheds []*tracedSched
	times  []float64 // fire time of each event (traced), up to cap
	steps  int64
	pend   int64 // sum of pending events seen before each step
}

func newSimNet(flows int, rounds *sampleBuf, tr *tracer, times []float64, spinNS int64) *simNet {
	n := &simNet{
		q: &eventq.Queue{}, gen: make([]int64, flows), size: make([]float64, flows),
		dig: newDigest(), rounds: rounds, tr: tr, times: times, spinNS: spinNS,
	}
	n.sink = sim.NewSink(n.q)
	var next sim.Consumer = n.sink
	if tr != nil {
		next = tracedConsumer{n.sink, tr, spSinkDeliver}
	}
	n.sinkIn = &sinkIn{n: n, next: next}
	return n
}

// sched returns the named discipline, wrapped when tracing.
func (n *simNet) sched(name string, opts ...sched.Option) sched.Interface {
	s := sched.MustNew(name, opts...)
	if n.tr == nil {
		return s
	}
	w, ts := wrapSched(s, n.tr, n.spinNS)
	n.scheds = append(n.scheds, ts)
	return w
}

func (n *simNet) proc(p server.Process) server.Process {
	if n.tr == nil {
		return p
	}
	return tracedProc{p, n.tr}
}

// link builds a link and returns it with its input consumer.
func (n *simNet) link(name string, s sched.Interface, p server.Process, out sim.Consumer) (*sim.Link, sim.Consumer) {
	l := sim.NewLink(n.q, name, s, n.proc(p), out)
	n.links = append(n.links, l)
	if n.tr == nil {
		return l, l
	}
	return l, tracedConsumer{l, n.tr, spSimDeliver}
}

// source returns the consumer a source of flow delivers to: it counts
// generated packets, then forwards to next.
func (n *simNet) source(flow int, size float64, next sim.Consumer) sim.Consumer {
	n.size[flow] = size
	return genCounter{n, next}
}

type genCounter struct {
	n    *simNet
	next sim.Consumer
}

func (c genCounter) Deliver(f *sim.Frame) {
	c.n.gen[f.Flow]++
	c.next.Deliver(f)
}

// sinkIn digests every delivered packet and closes a latency round every
// roundPkts packets.
type sinkIn struct {
	n    *simNet
	next sim.Consumer
}

func (c *sinkIn) Deliver(f *sim.Frame) {
	n := c.n
	n.dig.add(f.Flow, f.Seq, n.q.Now())
	n.delivered++
	if n.delivered%roundPkts == 0 {
		t := nowNS()
		n.rounds.add(t - n.lastRound)
		n.lastRound = t
	}
	c.next.Deliver(f)
}

// drive runs the pass to completion. The traced form steps the queue
// itself, recording a span per event, the pending count before it, and
// its fire time.
func (n *simNet) drive() {
	n.lastRound = nowNS()
	if n.tr == nil {
		n.q.Run()
		return
	}
	for n.q.Len() > 0 {
		n.pend += int64(n.q.Len())
		s := n.tr.begin(spStep)
		n.q.Step()
		n.tr.end(spStep, s)
		n.steps++
		if len(n.times) < cap(n.times) {
			n.times = append(n.times, n.q.Now())
		}
	}
}

// audit checks per-flow conservation after the drain: every generated
// packet was delivered, dropped, or is still queued. It returns the drops.
func (n *simNet) audit(res *result) int64 {
	var drops, delivered int64
	for flow, g := range n.gen {
		var dropped int64
		var queued float64
		for _, l := range n.links {
			dropped += l.DropsByFlow(flow)
			queued += l.FlowQueuedBytes(flow)
		}
		got := n.sink.Count(flow)
		q := int64(math.Round(queued / n.size[flow]))
		res.check(g == got+dropped+q, "flow %d: generated %d != delivered %d + dropped %d + queued %d", flow, g, got, dropped, q)
		drops += dropped
		delivered += got
	}
	res.check(delivered == n.delivered, "sink counted %d packets, digest saw %d", delivered, n.delivered)
	return drops
}

// paperSpec is the E2EBound chain: five 1 Mb/s hops running the tag-based
// classics by registry name, one of them an EBF random-slotted server,
// two Poisson cross flows per hop and a leaky-bucket-shaped on-off flow
// across all hops.
var paperSpec = simSpec{
	name: "sim-paper", flows: 11,
	digestSeed1: 0x8c7e4a1e1c98eba1,
	build: func(n *simNet, seed int64) {
		const (
			pkt    = 500.0
			prop   = 0.002
			hops   = 5
			ebfHop = 2
			tagged = 0
		)
		c := units.Mbps(1)
		rng := rand.New(rand.NewSource(seed))
		discs := []struct {
			name string
			opts []sched.Option
		}{{"sfq", nil}, {"wfq", []sched.Option{sched.WithAssumedCapacity(c)}}, {"scfq", nil}, {"vclock", nil}, {"edd", nil}}
		var next sim.Consumer // the tagged flow's next hop
		for h := hops - 1; h >= 0; h-- {
			s := n.sched(discs[h].name, discs[h].opts...)
			a, b := 1+2*h, 2+2*h
			for _, fw := range []struct {
				flow int
				w    float64
			}{{tagged, 0.2 * c}, {a, 0.4 * c}, {b, 0.4 * c}} {
				if err := s.AddFlow(fw.flow, fw.w); err != nil {
					panic(err)
				}
			}
			var proc server.Process = server.NewConstantRate(c)
			if h == ebfHop {
				proc = server.NewRandomSlotted(c, 0.02, rand.New(rand.NewSource(rng.Int63())))
			}
			l, in := n.link(discs[h].name, s, proc, hopOut{next: next, sink: n.sinkIn})
			l.PropDelay = prop
			for _, flow := range []int{a, b} {
				(&source.Poisson{Q: n.q, Out: n.source(flow, pkt, in), Flow: flow, Rate: 0.39 * c, PktBytes: pkt,
					Stop: paperHorizon, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
			}
			next = in
		}
		shaper := source.NewLeakyBucket(n.q, next, 4*pkt, 0.2*c)
		(&source.OnOff{Q: n.q, Out: n.source(tagged, pkt, shaper), Flow: tagged, PeakRate: c, PktBytes: pkt,
			MeanOn: 0.1, MeanOff: 0.5, Stop: paperHorizon, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
	},
}

// Simulated seconds of source traffic per pass.
const (
	paperHorizon = 50.0
	wideHorizon  = 10.0
)

// hopOut routes a hop's departures: the tagged flow (flow 0) to the next
// hop, cross traffic (and the tagged flow after the last hop) to the sink.
type hopOut struct {
	next, sink sim.Consumer
}

func (o hopOut) Deliver(f *sim.Frame) {
	if f.Flow == 0 && o.next != nil {
		o.next.Deliver(f)
		return
	}
	o.sink.Deliver(f)
}

// wideSpec is one 100 Mb/s SFQ link shared by 4096 Poisson flows with
// weights 1..4 and packet sizes 200..1250 B, offered at 95% of capacity.
var wideSpec = simSpec{
	name: "sim-wide", flows: 4096,
	digestSeed1: 0x12fd83b047f10bbe,
	build: func(n *simNet, seed int64) {
		const flows = 4096
		c := units.Mbps(100)
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, flows)
		sizes := make([]float64, flows)
		sumW := 0.0
		for i := range w {
			w[i] = float64(1 + rng.Intn(4))
			sizes[i] = float64(200 + rng.Intn(1051))
			sumW += w[i]
		}
		s := n.sched("sfq")
		_, in := n.link("wide", s, server.NewConstantRate(c), n.sinkIn)
		for i := range w {
			if err := s.AddFlow(i, c*w[i]/sumW); err != nil {
				panic(err)
			}
			(&source.Poisson{Q: n.q, Out: n.source(i, sizes[i], in), Flow: i, Rate: 0.95 * c * w[i] / sumW,
				PktBytes: sizes[i], Stop: wideHorizon, Rng: rand.New(rand.NewSource(rng.Int63()))}).Run()
		}
	},
}

// simPass is one pass's measurements.
type simPass struct {
	setup, run time.Duration
	pkts       int64
	allocs     uint64
	dig        digest
	net        *simNet
}

// simPasses runs passes until budget is spent (and at least least passes).
func simPasses(spec simSpec, seed int64, budget time.Duration, least int, rounds *sampleBuf, tr *tracer, times []float64, spinNS int64, res *result) []simPass {
	var out []simPass
	start := time.Now()
	for len(out) < least || time.Since(start) < budget {
		t0 := time.Now()
		n := newSimNet(spec.flows, rounds, tr, times[:0], spinNS)
		spec.build(n, seed)
		setup := time.Since(t0)
		m0 := mallocs()
		t1 := time.Now()
		n.drive()
		run := time.Since(t1)
		allocs := mallocs() - m0
		drops := n.audit(res)
		var gen int64
		for _, g := range n.gen {
			gen += g
		}
		res.attempted += gen
		res.failedOps += drops
		out = append(out, simPass{setup: setup, run: run, pkts: n.delivered, allocs: allocs, dig: n.dig, net: n})
		times = n.times
		if len(out) > 1 {
			// Only the newest pass's network stays reachable.
			out[len(out)-2].net = nil
		}
	}
	for _, p := range out[1:] {
		res.check(p.dig == out[0].dig, "%s: pass digests differ (%#x vs %#x)", spec.name, p.dig, out[0].dig)
	}
	res.check(rounds.dropped == 0, "%s: %d round samples did not fit the sample buffer", spec.name, rounds.dropped)
	if seed == 1 {
		res.check(out[0].dig == spec.digestSeed1, "%s: seed-1 digest %#x, stored %#x", spec.name, out[0].dig, spec.digestSeed1)
	}
	return out
}

func runSim(spec simSpec, seed int64, budget time.Duration, traced bool, spinNS int64) *result {
	res := newResult()
	if !traced {
		rounds := &sampleBuf{s: make([]int64, 0, 1<<21)}
		passes := simPasses(spec, seed, budget, minPasses, rounds, nil, nil, 0, res)
		var setups, rates []float64
		var allocs uint64
		var pkts int64
		for _, p := range passes {
			setups = append(setups, p.setup.Seconds())
			rates = append(rates, float64(p.pkts)/p.run.Seconds())
			allocs += p.allocs
			pkts += p.pkts
		}
		lat := nsToMicros(rounds.s)
		res.set("setup_s", median(setups))
		res.set("pkts_per_s", median(rates))
		res.setLatency("round", lat)
		res.note("rounds", float64(len(lat)), "count")
		res.note("passes", float64(len(passes)), "count")
		res.note("allocs_per_pkt", float64(allocs)/float64(pkts), "count")
		res.note("fail_frac", res.failFrac(), "ratio")
		res.report = append(res.report, fmt.Sprintf("%-26s %#x", "digest", uint64(passes[0].dig)))
		last := passes[len(passes)-1].net
		rounds.s, lat = nil, nil
		res.set("heap_live_mb", liveHeapMB())
		runtime.KeepAlive(last)
		return res
	}

	// Traced run: untraced passes for half the budget, then traced passes.
	rounds := &sampleBuf{s: make([]int64, 0, 1<<21)}
	plain := simPasses(spec, seed, budget/2, 2, rounds, nil, nil, 0, res)
	res.set("e2e.lat_p99_us", windowedQuantile(nsToMicros(rounds.s), 0.99))
	tr := newTracer()
	times := make([]float64, 0, 1<<20)
	tpasses := simPasses(spec, seed, budget/2, 2, rounds, tr, times, spinNS, res)
	res.check(plain[0].dig == tpasses[0].dig, "%s: traced digest %#x != untraced %#x", spec.name, tpasses[0].dig, plain[0].dig)
	// Passes do identical work, so their allocation counts agree up to
	// map growth, which varies by a few objects with Go's per-map hash
	// seeds; a wrapper allocating per call would add one per packet.
	pa, ta := plain[len(plain)-1], tpasses[len(tpasses)-1]
	res.check(math.Abs(float64(pa.allocs)-float64(ta.allocs)) < 1e-3*float64(pa.pkts),
		"%s: traced pass allocated %d objects, untraced %d", spec.name, ta.allocs, pa.allocs)

	var plainRun, tracedRun []float64
	for _, p := range plain {
		plainRun = append(plainRun, p.run.Seconds())
	}
	var host time.Duration
	var pkts, steps, pend, drops, enqCalls, backlog int64
	for _, p := range tpasses {
		tracedRun = append(tracedRun, p.run.Seconds())
		host += p.run
		pkts += p.pkts
	}
	last := tpasses[len(tpasses)-1].net
	steps, pend = last.steps, last.pend
	for _, l := range last.links {
		drops += l.Drops()
	}
	for _, s := range last.scheds {
		enqCalls += s.enqCalls
		backlog += s.backlogSum
	}
	ag := tr.agg
	hostNS := float64(host.Nanoseconds())
	per := func(a spanAgg, self bool) float64 {
		if a.n == 0 {
			return 0
		}
		if self {
			return float64(a.self) / float64(a.n)
		}
		return float64(a.total) / float64(a.n)
	}
	pendMean := float64(pend) / float64(steps)
	res.set("eventq.self_ns_per_event", per(ag[spStep], true))
	res.set("eventq.bare_ns_per_event", replayBare(last.times, int(math.Round(pendMean))))
	res.set("eventq.events_per_pkt", float64(ag[spStep].n)/float64(pkts))
	res.set("eventq.pending_mean", pendMean)
	res.set("eventq.gap_us_mean", last.q.Now()/float64(steps)*1e6)
	res.set("eventq.self_share", float64(ag[spStep].self)/hostNS)
	res.set("sched.enq_ns", per(ag[spSchedEnq], false))
	res.set("sched.deq_ns", per(ag[spSchedDeq], false))
	res.set("sched.calls_per_pkt", float64(ag[spSchedEnq].n+ag[spSchedDeq].n)/float64(pkts))
	res.set("sched.backlog_mean", float64(backlog)/float64(max(enqCalls, 1)))
	res.set("sched.self_share", float64(ag[spSchedEnq].self+ag[spSchedDeq].self)/hostNS)
	res.set("sim.deliver_self_ns", per(ag[spSimDeliver], true))
	res.set("sim.drops_per_pkt", float64(drops)/float64(last.delivered))
	res.set("sim.self_share", float64(ag[spSimDeliver].self)/hostNS)
	res.set("server.finish_ns", per(ag[spServerFinish], false))
	res.set("server.calls_per_pkt", float64(ag[spServerFinish].n)/float64(pkts))
	res.set("sink.deliver_ns", per(ag[spSinkDeliver], false))
	res.set("trace.overhead_ratio", median(tracedRun)/median(plainRun))
	var self int64
	for _, sp := range []int{spStep, spSimDeliver, spSchedEnq, spSchedDeq, spServerFinish, spSinkDeliver} {
		self += ag[sp].self
	}
	res.set("ladder.coverage", float64(self)/hostNS)
	var plainPkts int64
	var plainAllocs uint64
	for _, p := range plain {
		plainPkts += p.pkts
		plainAllocs += p.allocs
	}
	res.set("e2e.allocs_per_pkt", float64(plainAllocs)/float64(plainPkts))
	// Not a reported metric: the attribution test reads it.
	res.set("traced_pkts_per_s", float64(pkts)/host.Seconds())
	if err := writeSpans(spanPath(spec.name), tr); err != nil {
		res.report = append(res.report, "span log not written: "+err.Error())
	}
	return res
}

// replayBare replays a recorded event-time sequence through a bare
// eventq.Queue with no-op callbacks, holding pending events in the queue
// at all times: the event queue alone, at the workload's occupancy and
// time spread. It returns the median of three replays in ns per event.
func replayBare(times []float64, pending int) float64 {
	if len(times) == 0 {
		return 0
	}
	pending = max(pending, 1)
	noop := func(any) {}
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		var q eventq.Queue
		next := 0
		for ; next < pending && next < len(times); next++ {
			q.AtCall(times[next], noop, nil)
		}
		start := time.Now()
		for q.Step() {
			if next < len(times) {
				q.AtCall(times[next], noop, nil)
				next++
			}
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(times)))
	}
	return median(ns)
}

// spanPath is where a traced run writes its span log: under the build
// directory in the checkout.
func spanPath(workload string) string {
	return filepath.Join(".bench_build", "spans-"+workload+".tsv")
}
