package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/experiments"
	_ "repro/internal/pifo" // registers pifo-* and the UPS disciplines
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/server"
)

// One benchmark per paper table/figure: each iteration regenerates the
// artifact (at reduced scale where a scale knob exists, so a -bench run
// stays laptop-sized). Run `go test -bench=. -benchmem` to time them, or
// `go run ./cmd/experiments` to print the paper-style rows at full scale.

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(int64(i + 1))
		sink(b, r.Got["H_const_SFQ"])
	}
}

func BenchmarkExample1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.Example1().Got["H_WFQ"])
	}
}

func BenchmarkExample2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.Example2().Got["Wf_WFQ"])
	}
}

func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1b(experiments.Fig1Config{Scale: 1, Seed: int64(i + 1)})
		sink(b, r.Got["src2_SFQ"])
	}
}

func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.Fig2a().Got["delta_32Kb/s_10"])
	}
}

func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2b(experiments.Fig2bConfig{Scale: 0.02, Seed: int64(i + 1)})
		sink(b, r.Got["ratio_4"])
	}
}

func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3b(experiments.Fig3Config{Scale: 0.2, Seed: int64(i + 1)})
		sink(b, r.Got["phase1_r31"])
	}
}

func BenchmarkSCFQDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.SCFQDelay(int64(i + 1)).Got["gap_ms"])
	}
}

func BenchmarkWFQDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.WFQDelta().Got["low_ms"])
	}
}

func BenchmarkExample3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.Example3().Got["H_CD"])
	}
}

func BenchmarkDelayShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DelayShift(experiments.DelayShiftConfig{Scale: 0.5, Seed: int64(i + 1)})
		sink(b, r.Got["measured_hier_ms"])
	}
}

func BenchmarkResidual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.Residual(int64(i + 1)).Got["min_slack_ms"])
	}
}

func BenchmarkE2EBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.EndToEndBound(experiments.E2EConfig{Scale: 0.2, Seed: int64(i + 1)})
		sink(b, r.Got["measured_max_ms"])
	}
}

func BenchmarkGenRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.GenRate(int64(i + 1)).Got["max_aggregate"])
	}
}

func BenchmarkEBFTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.EBFTail(experiments.EBFTailConfig{Scale: 0.1, Seed: int64(i + 1)})
		sink(b, r.Got["measured_max_ms"])
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, experiments.AblationTieBreak(int64(i + 1)).Got["fifo_ms"])
		sink(b, experiments.AblationWFQClock(int64(i + 1)).Got["Wm_SFQ"])
		sink(b, experiments.AblationHierarchyOverhead(int64(i + 1)).Got["tree_r31"])
	}
}

func sink(b *testing.B, v float64) {
	if v != v { // NaN guard keeps the compiler from eliding the work
		b.Fatal("NaN result")
	}
}

// Scheduler micro-benchmarks back the paper's complexity discussion:
// SFQ/SCFQ are a tag computation plus an O(log Q) heap operation per
// packet, WFQ pays for the fluid GPS simulation on top, and DRR is O(1)
// amortized.

func benchScheduler(b *testing.B, mk func() sched.Interface, nflows int) {
	s := mk()
	for f := 0; f < nflows; f++ {
		if err := s.AddFlow(f, float64(f%7+1)*100); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	// Keep a standing backlog so Dequeue always succeeds.
	now := 0.0
	for f := 0; f < nflows; f++ {
		p := &sched.Packet{Flow: f, Length: 500}
		if err := s.Enqueue(now, p); err != nil {
			b.Fatal(err)
		}
	}
	// Recycle packets exactly as a link would: only when the scheduler
	// declares recycling safe. With the typed heaps this makes the whole
	// enqueue/dequeue cycle allocation-free for the tag-based disciplines.
	var pool sched.PacketPool
	poolOK := sched.PoolSafeScheduler(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-5
		var p *sched.Packet
		if poolOK {
			p = pool.Get()
		} else {
			p = &sched.Packet{}
		}
		p.Flow = rng.Intn(nflows)
		p.Length = 100 + float64(rng.Intn(1400))
		if err := s.Enqueue(now, p); err != nil {
			b.Fatal(err)
		}
		out, ok := s.Dequeue(now)
		if !ok {
			b.Fatal("scheduler ran dry")
		}
		if poolOK {
			pool.Put(out)
		}
	}
}

func BenchmarkSchedulerOps(b *testing.B) {
	algos := []struct {
		name string
		mk   func() sched.Interface
	}{
		{"SFQ", func() sched.Interface { return core.New() }},
		{"FlowSFQ", func() sched.Interface { return core.NewFlowSFQ() }},
		{"SCFQ", func() sched.Interface { return sched.NewSCFQ() }},
		{"WFQ", func() sched.Interface { return sched.NewWFQ(1e6) }},
		{"FQS", func() sched.Interface { return sched.NewFQS(1e6) }},
		{"DRR", func() sched.Interface { return sched.NewDRR(2000) }},
		{"VC", func() sched.Interface { return sched.NewVirtualClock() }},
		{"FA", func() sched.Interface { return sched.NewFairAirport() }},
		{"FIFO", func() sched.Interface { return sched.NewFIFO() }},
	}
	for _, a := range algos {
		for _, q := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/Q=%d", a.name, q), func(b *testing.B) {
				benchScheduler(b, a.mk, q)
			})
		}
	}
}

// BenchmarkScaleFlows measures the payoff of the flow-indexed core: cost
// per enqueue/dequeue cycle as the number of backlogged flows grows to
// 1M. The packet-level heaps this core replaced were O(log total-queued-
// packets); FlowQ/FlowHeap make every heap operation O(log backlogged-
// flows) and allocation-free in steady state, so these timings should grow
// only logarithmically in B while allocs/op stays at zero (the benchdiff
// gate enforces the latter).
func BenchmarkScaleFlows(b *testing.B) {
	algos := []struct {
		name string
		mk   func() sched.Interface
	}{
		{"SFQ", func() sched.Interface { return core.New() }},
		{"WFQ", func() sched.Interface { return sched.NewWFQ(1e6) }},
		{"SCFQ", func() sched.Interface { return sched.NewSCFQ() }},
		// The PIFO layer must keep the flow core's O(log B) and 0 allocs/op:
		// a classic rank function (SFQ) and a UPS discipline (LSTF).
		{"PIFO-SFQ", func() sched.Interface { return sched.MustNew("pifo-sfq") }},
		{"LSTF", func() sched.Interface { return sched.MustNew("lstf") }},
	}
	for _, a := range algos {
		for _, nf := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/B=%dk", a.name, nf/1000), func(b *testing.B) {
				benchScheduler(b, a.mk, nf)
			})
		}
	}
	// The million-flow point pins O(log B) growth and 0 allocs/op at the
	// extreme; one representative discipline, because the dominant cost is
	// faulting in ~1M live flow+packet objects, which would multiply the
	// gate's wall-clock per algorithm without adding signal.
	b.Run("SFQ/B=1000k", func(b *testing.B) {
		benchScheduler(b, func() sched.Interface { return core.New() }, 1000000)
	})
}

// BenchmarkHSFQDepth measures hierarchical scheduling cost per tree depth.
func BenchmarkHSFQDepth(b *testing.B) {
	for _, depth := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			h := core.NewHSFQ()
			parent := (*core.Class)(nil)
			for d := 0; d < depth-1; d++ {
				var err error
				parent, err = h.NewClass(parent, fmt.Sprintf("c%d", d), 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			for f := 0; f < 8; f++ {
				if err := h.AddFlowTo(parent, f, float64(f+1)); err != nil {
					b.Fatal(err)
				}
			}
			now := 0.0
			for f := 0; f < 8; f++ {
				if err := h.Enqueue(now, &sched.Packet{Flow: f, Length: 500}); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 1e-5
				if err := h.Enqueue(now, &sched.Packet{Flow: rng.Intn(8), Length: 500}); err != nil {
					b.Fatal(err)
				}
				if _, ok := h.Dequeue(now); !ok {
					b.Fatal("ran dry")
				}
			}
		})
	}
}

// BenchmarkHierTree measures the generic composition layer's steady-state
// cost: an SFQ root over DRR and EDD sinks (real packets live in the sink
// disciplines, the root schedules the sinks), and a tree of PIFOs (the
// root is itself a discipline scheduling pseudo-packets). Both must stay
// allocation-free: sink packets recycle through the shared pool and
// interior pseudo-packets through the tree's free list (the benchdiff
// allocs gate enforces this).
func BenchmarkHierTree(b *testing.B) {
	for _, tc := range []struct{ name, spec string }{
		{"sfq-drr-edd", "hier:sfq(drr,edd)"},
		{"pifo-of-pifos", "hier:pifo-sfq(pifo-sfq,pifo-sfq)"},
	} {
		for _, q := range []int{16, 256} {
			b.Run(fmt.Sprintf("%s/Q=%d", tc.name, q), func(b *testing.B) {
				benchScheduler(b, func() sched.Interface { return sched.MustNew(tc.spec) }, q)
			})
		}
	}
}

// BenchmarkGPSSimulation isolates the cost WFQ pays for the fluid
// reference system as flow count grows.
func BenchmarkGPSSimulation(b *testing.B) {
	for _, q := range []int{16, 1024} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			benchScheduler(b, func() sched.Interface { return sched.NewWFQ(1e6) }, q)
		})
	}
}

// BenchmarkEventQueue times the discrete-event core at steady pending
// depth: each iteration schedules one event a full horizon out and
// executes the earliest one. Q=16 and Q=4096 are the shallow and
// one-link-many-flows depths; Q=1000000 is a synthetic dense stress far
// beyond any repo workload. sparse/Q=19 is the paper-shaped occupancy
// (the E2EBound chain): 19 pending events, each rescheduled an
// exponential delay out, so consecutive events fire ~300µs apart. The
// cancel variants schedule and cancel one event under the same pending
// load. Every variant must stay at 0 allocs/op (benchdiff-gated).
func BenchmarkEventQueue(b *testing.B) {
	tick := func(any) {}
	fill := func(q *eventq.Queue, depth int) {
		for i := 0; i < depth; i++ {
			q.AtCall(float64(i)*1e-6, tick, nil)
		}
	}
	for _, depth := range []int{16, 4096, 1000000} {
		horizon := float64(depth) * 1e-6
		b.Run(fmt.Sprintf("Q=%d", depth), func(b *testing.B) {
			var q eventq.Queue
			fill(&q, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.AtCall(q.Now()+horizon, tick, nil)
				q.Step()
			}
		})
		b.Run(fmt.Sprintf("cancel/Q=%d", depth), func(b *testing.B) {
			var q eventq.Queue
			fill(&q, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Cancel(q.Schedule(q.Now()+horizon, tick, nil))
			}
		})
	}
	b.Run("sparse/Q=19", func(b *testing.B) {
		const pending, gap = 19, 300e-6
		rng := rand.New(rand.NewSource(1))
		delays := make([]float64, 4096)
		for i := range delays {
			delays[i] = rng.ExpFloat64() * pending * gap
		}
		var q eventq.Queue
		for i := 0; i < pending; i++ {
			q.AtCall(delays[i], tick, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.AtCall(q.Now()+delays[i&(len(delays)-1)], tick, nil)
			q.Step()
		}
	})
}

// BenchmarkChaosMatrixShard times one cell of the chaos conformance matrix
// — workload + fault-plan generation, the faulted run, the conservation
// audit, and the digest. The parallel matrix runner shards exactly this
// unit across workers, so cell cost × seeds ÷ GOMAXPROCS approximates the
// matrix's wall-clock.
func BenchmarkChaosMatrixShard(b *testing.B) {
	kinds := []conformance.Kind{conformance.Bursty, conformance.Sporadic, conformance.OnOff, conformance.Greedy}
	mk := func(conformance.Workload) sched.Interface { return core.New() }
	for i := 0; i < b.N; i++ {
		d, err := conformance.ChaosReplay(mk, kinds, 12, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		sink(b, float64(len(d)))
	}
}

// BenchmarkServerProcesses times the variable-rate capacity integrators.
func BenchmarkServerProcesses(b *testing.B) {
	procs := []struct {
		name string
		mk   func() server.Process
	}{
		{"const", func() server.Process { return server.NewConstantRate(1e6) }},
		{"onoff", func() server.Process { return server.NewPeriodicOnOff(1e6, 0.01) }},
		{"slotted", func() server.Process {
			return server.NewRandomSlotted(1e6, 0.01, rand.New(rand.NewSource(1)))
		}},
		{"markov", func() server.Process {
			return server.NewMarkovModulated([]float64{5e5, 1e6, 2e6}, 0.01, rand.New(rand.NewSource(1)))
		}},
	}
	for _, p := range procs {
		b.Run(p.name, func(b *testing.B) {
			proc := p.mk()
			now := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = proc.Finish(now, 1000)
			}
		})
	}
}

// BenchmarkConformanceReplay times one full conformance cycle — drive a
// random workload through SFQ, apply the theorem-bound checkers, and replay
// it on the brute-force reference for the differential comparison. This is
// the unit of work the 1000-seed matrix repeats, so later performance PRs
// can judge checker overhead against the BENCH_*.json trajectory.
func BenchmarkConformanceReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		w := conformance.Random(rng, conformance.Kind(i%4), 12)
		sch := core.New()
		tr, res, err := conformance.Run(sch, w, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, check := range []error{
			conformance.CheckAlignment(tr, res.Mon),
			conformance.CheckConservation(tr, sch, w),
			conformance.CheckPerFlowFIFO(tr),
			conformance.CheckWorkConserving(tr, res.Mon),
			conformance.CheckTheorem1(res.Mon, w, qos.SFQFairnessBound),
			conformance.CheckTheorem2(res.Mon, w),
			conformance.CheckTheorem4Delay(tr, res.Mon, w),
		} {
			if check != nil {
				b.Fatal(check)
			}
		}
		rtr, _, err := conformance.Run(conformance.NewRefSFQ(), w, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rtr.Deq) != len(tr.Deq) {
			b.Fatal("reference replay diverged")
		}
		sink(b, float64(len(tr.Deq)))
	}
}
