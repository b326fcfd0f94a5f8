// Command perfbench is the repository's end-to-end benchmark. It builds
// each workload from the library's public constructors, measures it with
// tracing off (end-to-end metrics) or on (per-layer metrics), checks the
// program's outputs, and prints one JSON result as its last line:
//
//	go run . --workload sim-paper --seed 1 --seconds 10 --trace 0
//
// Workloads: sim-paper and sim-wide drive the discrete-event simulator
// (eventq → sched → sim → server); rt-data and rt-admit drive the
// wall-clock runtime (rt.Runtime, rt.Admitter). See BASELINE.md for the
// recorded numbers and what each workload is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	_ "repro/internal/core" // registers the SFQ family by name
)

type metricDef struct{ name, unit string }

// endToEnd is the metric set of an untraced run; every workload reports
// every one of them, and none of them can be 0. lat_p50_us/lat_p90_us are
// the workload's latency: the host time of one 64-packet round on
// sim-paper, sim-wide and rt-data, and a request's wait from its due time
// to its dispatch on rt-admit. The tail is bounded at p90, not p99: on a
// shared 2-vCPU host, host interruptions hit 1.5-3% of rounds, so a p99
// measures how often the host interrupts, not the program. The p99 is
// printed beside it and reported as e2e.lat_p99_us by the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"heap_live_mb", "MiB"},
}

// perLayer is the metric set of a traced run. A layer a workload does not
// reach reports 0. The e2e.* entries are end-to-end figures that can be 0
// (and so cannot sit in the bounded end-to-end set); they come from the
// untraced half of the traced run.
var perLayer = []metricDef{
	{"eventq.self_ns_per_event", "ns"},
	{"eventq.bare_ns_per_event", "ns"},
	{"eventq.events_per_pkt", "count"},
	{"eventq.pending_mean", "count"},
	{"eventq.gap_us_mean", "us"},
	{"eventq.self_share", "ratio"},
	{"sched.enq_ns", "ns"},
	{"sched.deq_ns", "ns"},
	{"sched.calls_per_pkt", "count"},
	{"sched.backlog_mean", "count"},
	{"sched.self_share", "ratio"},
	{"sim.deliver_self_ns", "ns"},
	{"sim.drops_per_pkt", "count"},
	{"sim.self_share", "ratio"},
	{"server.finish_ns", "ns"},
	{"server.calls_per_pkt", "count"},
	{"sink.deliver_ns", "ns"},
	{"clock.reads_per_pkt", "count"},
	{"clock.ns_per_read", "ns"},
	{"rt.enq_self_ns_per_pkt", "ns"},
	{"rt.deq_self_ns_per_pkt", "ns"},
	{"rt.shed_per_pkt", "count"},
	{"rt.backlog_mean", "count"},
	{"admit.submit_ns", "ns"},
	{"admit.finish_ns", "ns"},
	{"admit.self_ns_per_req", "ns"},
	{"admit.dispatch_lag_us", "us"},
	{"admit.queued_mean", "count"},
	{"admit.executing_mean", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"ladder.coverage", "ratio"},
	{"e2e.allocs_per_pkt", "count"},
	{"e2e.fail_frac", "ratio"},
	{"e2e.share_err", "ratio"},
	{"e2e.gen_late_p99_us", "us"},
	{"e2e.lat_p99_us", "us"},
}

// result collects one run's outcome. attempted counts packets or
// requests offered; failedOps counts those dropped, shed or refused with
// an error; problems lists failed correctness checks.
type result struct {
	attempted, failedOps int64
	problems             []string
	vals                 map[string]float64
	// report holds the human-readable lines printed before the JSON
	// line: workload-specific names (round_p50_us, wait_p50_us, ...).
	report []string
}

func newResult() *result { return &result{vals: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.vals[name] = v }

func (r *result) note(name string, v float64, unit string) {
	r.report = append(r.report, fmt.Sprintf("%-26s %14.6g %s", name, v, unit))
}

// setLatency sets lat_p50_us and lat_p90_us from a run's latency samples
// (µs, in time order) and notes them, with the p99, under the workload's
// own name for the sample (round, wait).
func (r *result) setLatency(sample string, us []float64) {
	p50, p90 := windowedQuantile(us, 0.5), windowedQuantile(us, 0.9)
	r.set("lat_p50_us", p50)
	r.set("lat_p90_us", p90)
	r.note(sample+"_p50_us", p50, "us")
	r.note(sample+"_p90_us", p90, "us")
	r.note(sample+"_p99_us", windowedQuantile(us, 0.99), "us")
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) failFrac() float64 {
	return float64(r.failedOps+int64(len(r.problems))) / float64(max(r.attempted, 1))
}

// workload runs for budget and returns its result; traced selects the
// per-layer run.
type workload func(seed int64, budget time.Duration, traced bool) *result

var workloads = map[string]workload{
	"sim-paper": func(seed int64, budget time.Duration, traced bool) *result {
		return runSim(paperSpec, seed, budget, traced, 0)
	},
	"sim-wide": func(seed int64, budget time.Duration, traced bool) *result {
		return runSim(wideSpec, seed, budget, traced, 0)
	},
	"rt-data":  runData,
	"rt-admit": runAdmit,
}

func main() {
	name := flag.String("workload", "", "workload: sim-paper, sim-wide, rt-data or rt-admit")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res := run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	res.set("e2e.fail_frac", res.failFrac())

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.vals[d.name]
		if !ok && *trace == 0 {
			panic("perfbench: workload did not report " + d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("%-26s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := len(res.problems) == 0 && res.failedOps == 0
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failedOps + int64(len(res.problems)),
		"metrics":   metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}
