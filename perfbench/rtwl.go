package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/rt"
	"repro/internal/sched"
)

// tracedSFQ is a benchmark-only registry name: SFQ behind the traced
// wrapper, so that a runtime's shards call their discipline through it.
// shardWrap supplies each shard's wrapper while a traced runtime is built.
const tracedSFQ = "perfbench-traced-sfq"

var shardWrap func(sched.Interface) sched.Interface

func init() {
	sched.Register(tracedSFQ, func(cfg sched.Config) (sched.Interface, error) {
		if shardWrap == nil {
			return nil, fmt.Errorf("%w: %s is built only by a traced run", sched.ErrBadConfig, tracedSFQ)
		}
		inner, err := sched.NewDiscipline("sfq", cfg)
		if err != nil {
			return nil, err
		}
		return shardWrap(inner), nil
	})
}

// newRuntime builds an SFQ runtime with the given shard count. With a
// recorder, the runtime is the traced one: every shard's discipline and
// the clock record their spans into rec.
func newRuntime(shards int, rec recorder) (*rt.Runtime, []*tracedSched, error) {
	if rec == nil {
		r, err := rt.New("sfq", sched.WithShards(shards))
		return r, nil, err
	}
	var scheds []*tracedSched
	shardWrap = func(inner sched.Interface) sched.Interface {
		w, ts := wrapSched(inner, rec, 0)
		scheds = append(scheds, ts)
		return w
	}
	defer func() { shardWrap = nil }()
	r, err := rt.New(tracedSFQ, sched.WithShards(shards), sched.WithClock(tracedClock{rt.WallClock(), rec}))
	return r, scheds, err
}

// medianSetup builds a workload reps times and returns the median build
// time and the last build.
func medianSetup[T any](reps int, build func() T) (float64, T) {
	var last T
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		last = build()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), last
}

// setupReps is how many times the rt workloads, whose set-up takes well
// under a millisecond, are built to take the median set-up time.
const setupReps = 201

// --- rt-data: closed loop over a 2-shard runtime ---

const (
	dataFlows   = 64
	dataShards  = 2
	dataBacklog = 16 // packets standing per flow: enough that no flow empties within a 64-packet round
	dataBatch   = 64
)

type dataNet struct {
	r      *rt.Runtime
	w      []float64
	shard  []int // flow → shard
	scheds []*tracedSched
	tr     *tracer // traced only
}

func buildData(seed int64, traced bool) (*dataNet, error) {
	rng := rand.New(rand.NewSource(seed))
	n := &dataNet{w: make([]float64, dataFlows), shard: make([]int, dataFlows)}
	var rec recorder
	if traced {
		n.tr = newTracer()
		rec = n.tr
	}
	r, scheds, err := newRuntime(dataShards, rec)
	if err != nil {
		return nil, err
	}
	n.r, n.scheds = r, scheds
	ps := make([]*sched.Packet, 0, dataFlows*dataBacklog)
	for f := 0; f < dataFlows; f++ {
		n.w[f] = float64(1 + rng.Intn(4))
		size := float64(200 + rng.Intn(1051))
		if err := r.AddFlow(f, n.w[f]); err != nil {
			return nil, err
		}
		if n.shard[f], err = r.FlowShard(f); err != nil {
			return nil, err
		}
		for k := 0; k < dataBacklog; k++ {
			ps = append(ps, &sched.Packet{Flow: f, Length: size})
		}
	}
	for i := 0; i < len(ps); i += dataBatch {
		if got, err := r.EnqueueBatch(ps[i:min(i+dataBatch, len(ps))]); err != nil || got != min(dataBatch, len(ps)-i) {
			return nil, fmt.Errorf("initial backlog: %d accepted, %v", got, err)
		}
	}
	// Start the traced counters at the timed phase.
	if n.tr != nil {
		n.tr.agg, n.tr.log = [numSpans]spanAgg{}, n.tr.log[:0]
	}
	for _, s := range n.scheds {
		s.enqCalls, s.backlogSum = 0, 0
	}
	return n, nil
}

// dataPhase is one timed phase of rt-data.
type dataPhase struct {
	n            *dataNet
	setup        float64
	elapsed      time.Duration
	pkts         int64
	allocs       uint64
	rounds       []float64 // µs
	share        float64
	bytes, count [dataFlows]float64 // dequeued per flow
}

// work runs rounds until budget is spent. A round serves each shard in
// turn: dequeue a batch of 64, then re-enqueue every packet on its own
// flow, so the SFQ order alone sets each flow's share.
func (ph *dataPhase) work(budget time.Duration, rounds *sampleBuf, res *result) {
	n, tr := ph.n, ph.n.tr
	buf := make([]*sched.Packet, dataBatch)
	start := nowNS()
	last, end := start, start+int64(budget)
	for last < end {
		for s := 0; s < dataShards; s++ {
			var k, got int
			var err error
			if tr == nil {
				k = n.r.DequeueBatch(s, buf)
			} else {
				t := tr.begin(spRTDeq)
				k = n.r.DequeueBatch(s, buf)
				tr.end(spRTDeq, t)
			}
			for _, p := range buf[:k] {
				ph.bytes[p.Flow] += p.Length
				ph.count[p.Flow]++
			}
			if tr == nil {
				got, err = n.r.EnqueueBatch(buf[:k])
			} else {
				t := tr.begin(spRTEnq)
				got, err = n.r.EnqueueBatch(buf[:k])
				tr.end(spRTEnq, t)
			}
			if got != k {
				res.failedOps += int64(k - got)
				res.check(false, "rt-data: EnqueueBatch: %v", err)
			}
			ph.pkts += int64(k)
		}
		now := nowNS()
		rounds.add(now - last)
		last = now
	}
	ph.elapsed = time.Duration(last - start)
}

func dataRun(seed int64, budget time.Duration, traced bool, res *result) *dataPhase {
	var buildErr error
	setup, n := medianSetup(setupReps, func() *dataNet {
		n, err := buildData(seed, traced)
		if err != nil {
			buildErr = err
		}
		return n
	})
	if buildErr != nil {
		panic(buildErr)
	}
	// Room for one round every 5 µs; a faster program drops late samples
	// (a failed check) instead of allocating.
	rounds := &sampleBuf{s: make([]int64, 0, int(budget.Seconds()*200e3)+1024)}
	ph := &dataPhase{n: n, setup: setup}
	m0 := mallocs()
	ph.work(budget, rounds, res)
	ph.allocs = mallocs() - m0
	ph.rounds = nsToMicros(rounds.s)
	res.attempted += ph.pkts
	res.check(rounds.dropped == 0, "rt-data: %d round samples did not fit the sample buffer", rounds.dropped)

	// Conservation: every packet queued at set-up or re-enqueued was
	// dequeued or is still queued; nothing was shed.
	for f := 0; f < dataFlows; f++ {
		a := n.r.FlowAccount(f)
		q := n.r.QueuedBytes(f)
		res.check(a.Shed == 0, "rt-data: flow %d shed %d", f, a.Shed)
		res.check(a.Enqueued == a.Dequeued+dataBacklog, "rt-data: flow %d enqueued %d != dequeued %d + backlog %d", f, a.Enqueued, a.Dequeued, dataBacklog)
		res.check(a.EnqueuedBytes == a.DequeuedBytes+q, "rt-data: flow %d enqueued %g B != dequeued %g B + queued %g B", f, a.EnqueuedBytes, a.DequeuedBytes, q)
		res.check(float64(a.Dequeued) == ph.count[f], "rt-data: flow %d ledger dequeued %d, worker saw %g", f, a.Dequeued, ph.count[f])
	}
	// share_err: the largest gap between a flow's share of its shard's
	// dequeued bytes and its weight share.
	var shardBytes, shardW [dataShards]float64
	for f := 0; f < dataFlows; f++ {
		shardBytes[n.shard[f]] += ph.bytes[f]
		shardW[n.shard[f]] += n.w[f]
	}
	for f := 0; f < dataFlows; f++ {
		s := n.shard[f]
		ph.share = math.Max(ph.share, math.Abs(ph.bytes[f]/shardBytes[s]-n.w[f]/shardW[s]))
	}
	res.check(ph.share < 0.01, "rt-data: share error %.4g exceeds 0.01", ph.share)
	return ph
}

func runData(seed int64, budget time.Duration, traced bool) *result {
	res := newResult()
	if !traced {
		ph := dataRun(seed, budget, false, res)
		res.set("setup_s", ph.setup)
		res.set("pkts_per_s", windowedRate(ph.rounds, dataBatch*dataShards))
		res.setLatency("round", ph.rounds)
		res.note("rounds", float64(len(ph.rounds)), "count")
		res.note("share_err", ph.share, "ratio")
		res.note("allocs_per_pkt", float64(ph.allocs)/float64(ph.pkts), "count")
		res.note("fail_frac", res.failFrac(), "ratio")
		ph.rounds = nil
		res.set("heap_live_mb", liveHeapMB())
		runtime.KeepAlive(ph.n)
		return res
	}
	plain := dataRun(seed, budget/2, false, res)
	tp := dataRun(seed, budget/2, true, res)
	n := tp.n
	ag := n.tr.agg
	pkts := float64(tp.pkts)
	plainAllocs, tracedAllocs := float64(plain.allocs)/float64(plain.pkts), float64(tp.allocs)/pkts
	res.check(math.Abs(plainAllocs-tracedAllocs) < 0.01, "rt-data: traced allocs/pkt %.4g != untraced %.4g", tracedAllocs, plainAllocs)

	enqCalls, deqCalls := float64(ag[spSchedEnq].n), float64(ag[spSchedDeq].n)
	var backlog float64
	for _, s := range n.scheds {
		backlog += float64(s.backlogSum) / float64(max(s.enqCalls, 1))
	}
	hostNS := float64(tp.elapsed.Nanoseconds())
	res.set("sched.enq_ns", float64(ag[spSchedEnq].total)/enqCalls)
	res.set("sched.deq_ns", float64(ag[spSchedDeq].total)/deqCalls)
	res.set("sched.calls_per_pkt", (enqCalls+deqCalls)/pkts)
	res.set("sched.backlog_mean", backlog/float64(len(n.scheds)))
	res.set("sched.self_share", float64(ag[spSchedEnq].self+ag[spSchedDeq].self)/hostNS)
	res.set("clock.reads_per_pkt", float64(ag[spClock].n)/pkts)
	res.set("clock.ns_per_read", float64(ag[spClock].total)/float64(ag[spClock].n))
	res.set("rt.enq_self_ns_per_pkt", float64(ag[spRTEnq].self)/pkts)
	res.set("rt.deq_self_ns_per_pkt", float64(ag[spRTDeq].self)/pkts)
	res.set("rt.shed_per_pkt", 0)
	res.set("rt.backlog_mean", backlog)
	res.set("trace.overhead_ratio", (float64(plain.pkts)/plain.elapsed.Seconds())/(pkts/tp.elapsed.Seconds()))
	var self int64
	for _, sp := range []int{spRTEnq, spRTDeq, spSchedEnq, spSchedDeq, spClock} {
		self += ag[sp].self
	}
	res.set("ladder.coverage", float64(self)/hostNS)
	res.set("e2e.allocs_per_pkt", plainAllocs)
	res.set("e2e.share_err", plain.share)
	res.set("e2e.lat_p99_us", windowedQuantile(plain.rounds, 0.99))
	if err := writeSpans(spanPath("rt-data"), n.tr); err != nil {
		res.report = append(res.report, "span log not written: "+err.Error())
	}
	return res
}

// --- rt-admit: open loop through the admission facade ---

const (
	admitFlows = 16
	// admitServiceNS is how long each dispatched ticket is held. Kept short
	// so that the admitter's own cost is a visible share of the wait.
	admitServiceNS = 20_000
	// admitLoad is the offered load as a share of the nominal seat
	// capacity (one seat, admitServiceNS per request). The loop's own
	// work of about 1.5 µs per request raises the seat's utilization to
	// about 0.75.
	admitLoad = 0.7
	// admitMaxQueued bounds waiting requests; Submit sheds beyond it.
	admitMaxQueued = 1 << 16
)

// handoff is a submitted ticket waiting for the seat.
type handoff struct {
	t              *rt.Ticket
	due, submitted int64
}

// ringCap bounds one flow's waiting requests: at the offered load a
// flow's queue holds a handful, so a full ring means the program stalled
// for over a second.
const ringCap = 1 << 13

// ring is a fixed-capacity FIFO of hand-offs.
type ring struct {
	buf      [ringCap]handoff
	first, n int
}

func (r *ring) push(h handoff) bool {
	if r.n == ringCap {
		return false
	}
	r.buf[(r.first+r.n)%ringCap] = h
	r.n++
	return true
}

func (r *ring) head() *handoff { return &r.buf[r.first] }

func (r *ring) pop() handoff {
	h := r.buf[r.first]
	r.buf[r.first] = handoff{}
	r.first = (r.first + 1) % ringCap
	r.n--
	return h
}

// admitTally is one rt-admit phase's tallies; busy is the loop's host
// time spent submitting, dispatching and finishing (not waiting for a due
// time or a service end).
type admitTally struct {
	submitted, shed, finished, busy int64
	queuedSum, execSum, polls       int64
	lagSum                          int64
	late, wait                      sampleBuf
}

type admitPhase struct {
	admitTally
	setup          float64
	elapsed        time.Duration
	allocs         uint64
	waitUS, lateUS []float64
	tr             *tracer
	leaf           *sharedLeaf
	scheds         []*tracedSched
}

// admitRun drives the admitter from one goroutine on the wall clock: it
// submits each request at its seeded Poisson due time, starts serving the
// dispatched ticket whenever the seat is free, and finishes it
// admitServiceNS later. One busy thread leaves the second vCPU to the Go
// runtime and the OS, so their work does not stall the timed loop.
func admitRun(seed int64, budget time.Duration, traced bool, res *result) admitPhase {
	type built struct {
		a      *rt.Admitter
		rng    *rand.Rand
		leaf   *sharedLeaf
		scheds []*tracedSched
	}
	var buildErr error
	setup, b := medianSetup(setupReps, func() built {
		rng := rand.New(rand.NewSource(seed))
		var leaf *sharedLeaf
		var rec recorder
		if traced {
			leaf = &sharedLeaf{}
			rec = leaf
		}
		r, scheds, err := newRuntime(1, rec)
		if err == nil {
			for f := 0; f < admitFlows && err == nil; f++ {
				err = r.AddFlow(f, float64(1+rng.Intn(4)))
			}
		}
		var a *rt.Admitter
		if err == nil {
			a, err = rt.NewAdmitter(rt.AdmitterConfig{Runtime: r, Limit: 1, MaxQueued: admitMaxQueued})
		}
		if err != nil {
			buildErr = err
		}
		return built{a, rng, leaf, scheds}
	})
	if buildErr != nil {
		panic(buildErr)
	}
	ph := admitPhase{setup: setup, leaf: b.leaf, scheds: b.scheds}
	if traced {
		ph.tr = newTracer()
	}
	capReqs := int(budget.Seconds()*admitLoad/admitServiceNS*1e9*1.2) + 1024
	tl := admitTally{late: sampleBuf{s: make([]int64, 0, capReqs)}, wait: sampleBuf{s: make([]int64, 0, capReqs)}}
	// SFQ serves each flow's requests in arrival order, so the dispatched
	// ticket is always at the head of its flow's queue.
	var queues [admitFlows]ring
	var loopErr error
	meanGap := float64(admitServiceNS) / admitLoad

	m0 := mallocs()
	start := nowNS()
	due := start + int64(b.rng.ExpFloat64()*meanGap)
	open := due-start < int64(budget)
	waiting, serving := 0, false
	var cur handoff
	var svcEnd int64
	lastFree := start
	for loopErr == nil && (open || serving || waiting > 0) {
		now := nowNS()
		if serving && now >= svcEnd {
			var err error
			if ph.tr != nil {
				s := ph.tr.begin(spFinish)
				err = cur.t.Finish()
				ph.tr.end(spFinish, s)
			} else {
				err = cur.t.Finish()
			}
			if err != nil {
				loopErr = fmt.Errorf("Finish: %w", err)
			}
			serving = false
			lastFree = nowNS()
			tl.busy += lastFree - now
			tl.finished++
			now = lastFree
		}
		if open && now >= due {
			tl.late.add(now - due)
			flow := b.rng.Intn(admitFlows)
			var t *rt.Ticket
			var err error
			if ph.tr != nil {
				s := ph.tr.begin(spSubmit)
				t, err = b.a.Submit(flow, 1)
				ph.tr.end(spSubmit, s)
				tl.queuedSum += int64(b.a.Queued())
				tl.execSum += int64(b.a.Executing())
				tl.polls++
			} else {
				t, err = b.a.Submit(flow, 1)
			}
			tl.submitted++
			switch {
			case err != nil:
				tl.shed++
				loopErr = fmt.Errorf("Submit: %w", err)
			case !queues[flow].push(handoff{t, due, nowNS()}):
				loopErr = fmt.Errorf("flow %d: more than %d requests waiting", flow, ringCap)
			default:
				waiting++
			}
			due += int64(b.rng.ExpFloat64() * meanGap)
			open = due-start < int64(budget)
			t1 := nowNS()
			tl.busy += t1 - now
			now = t1
		}
		if !serving && waiting > 0 {
			for f := range queues {
				if q := &queues[f]; q.n > 0 && q.head().t.Running() {
					cur = q.pop()
					waiting--
					tl.wait.add(now - cur.due)
					tl.lagSum += now - max(lastFree, cur.submitted)
					serving, svcEnd = true, now+admitServiceNS
					tl.busy += nowNS() - now
					break
				}
			}
		}
	}
	ph.elapsed = time.Duration(nowNS() - start)
	ph.allocs = mallocs() - m0
	ph.admitTally = tl

	res.attempted += tl.submitted
	res.failedOps += tl.shed
	res.check(loopErr == nil, "rt-admit: %v", loopErr)
	res.check(tl.submitted == tl.finished+tl.shed, "rt-admit: submitted %d != finished %d + shed %d", tl.submitted, tl.finished, tl.shed)
	res.check(b.a.Queued() == 0 && b.a.Executing() == 0, "rt-admit: %d queued, %d executing after drain", b.a.Queued(), b.a.Executing())
	res.check(tl.wait.dropped == 0 && tl.late.dropped == 0, "rt-admit: samples did not fit the sample buffers")
	ph.waitUS, ph.lateUS = nsToMicros(tl.wait.s), nsToMicros(tl.late.s)
	return ph
}

func runAdmit(seed int64, budget time.Duration, traced bool) *result {
	res := newResult()
	if !traced {
		ph := admitRun(seed, budget, false, res)
		res.set("setup_s", ph.setup)
		res.set("pkts_per_s", float64(ph.finished)/ph.elapsed.Seconds())
		res.setLatency("wait", ph.waitUS)
		res.note("gen_late_p99_us", quantile(ph.lateUS, 0.99), "us")
		res.note("requests", float64(ph.finished), "count")
		res.note("allocs_per_pkt", float64(ph.allocs)/float64(ph.submitted), "count")
		res.note("fail_frac", res.failFrac(), "ratio")
		ph.waitUS, ph.lateUS = nil, nil
		res.set("heap_live_mb", liveHeapMB())
		return res
	}
	plain := admitRun(seed, budget/2, false, res)
	tp := admitRun(seed, budget/2, true, res)
	reqs := float64(tp.finished)
	plainAllocs, tracedAllocs := float64(plain.allocs)/float64(plain.submitted), float64(tp.allocs)/float64(tp.submitted)
	res.check(math.Abs(plainAllocs-tracedAllocs) < 0.01, "rt-admit: traced allocs/req %.4g != untraced %.4g", tracedAllocs, plainAllocs)

	ag := totals(tp.leaf, tp.tr)
	var enqCalls, backlog int64
	for _, s := range tp.scheds {
		enqCalls += s.enqCalls
		backlog += s.backlogSum
	}
	per := func(sp int) float64 { return float64(ag[sp].total) / float64(max(ag[sp].n, 1)) }
	children := float64(ag[spClock].total + ag[spSchedEnq].total + ag[spSchedDeq].total)
	top := float64(ag[spSubmit].total + ag[spFinish].total)
	res.set("sched.enq_ns", per(spSchedEnq))
	res.set("sched.deq_ns", per(spSchedDeq))
	res.set("sched.calls_per_pkt", float64(ag[spSchedEnq].n+ag[spSchedDeq].n)/reqs)
	res.set("sched.backlog_mean", float64(backlog)/float64(max(enqCalls, 1)))
	res.set("sched.self_share", float64(ag[spSchedEnq].total+ag[spSchedDeq].total)/top)
	res.set("clock.reads_per_pkt", float64(ag[spClock].n)/reqs)
	res.set("clock.ns_per_read", per(spClock))
	res.set("rt.shed_per_pkt", float64(tp.shed)/float64(tp.submitted))
	res.set("rt.backlog_mean", float64(backlog)/float64(max(enqCalls, 1)))
	res.set("admit.submit_ns", per(spSubmit))
	res.set("admit.finish_ns", per(spFinish))
	res.set("admit.self_ns_per_req", (top-children)/reqs)
	res.set("admit.dispatch_lag_us", float64(tp.lagSum)/reqs/1e3)
	res.set("admit.queued_mean", float64(tp.queuedSum)/float64(max(tp.polls, 1)))
	res.set("admit.executing_mean", float64(tp.execSum)/float64(max(tp.polls, 1)))
	res.set("trace.overhead_ratio", quantile(tp.waitUS, 0.5)/quantile(plain.waitUS, 0.5))
	// The rungs (clock, discipline, admitter self) partition the Submit and
	// Finish spans; coverage is their share of the per-request host time
	// the loop spends outside waits for due times and service ends.
	res.set("ladder.coverage", top/float64(tp.busy))
	res.set("e2e.allocs_per_pkt", plainAllocs)
	res.set("e2e.gen_late_p99_us", quantile(plain.lateUS, 0.99))
	res.set("e2e.lat_p99_us", windowedQuantile(plain.waitUS, 0.99))
	if err := writeSpans(spanPath("rt-admit"), tp.tr); err != nil {
		res.report = append(res.report, "span log not written: "+err.Error())
	}
	return res
}
