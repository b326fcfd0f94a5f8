package main

import (
	"testing"
	"time"
)

// TestAttribution checks that the ladder charges cost to the layer that
// spends it: a fixed spin added inside the benchmark's own discipline
// wrapper must show up in sched.enq_ns and in throughput on sim-wide,
// and must leave the bare event-queue replay where it was.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sim-wide four times")
	}
	const spinNS = 2000
	base := runSim(wideSpec, 1, 2*time.Second, true, 0)
	spun := runSim(wideSpec, 1, 2*time.Second, true, spinNS)
	for _, r := range []*result{base, spun} {
		if len(r.problems) > 0 || r.failedOps > 0 {
			t.Fatalf("checks failed: %v (%d failed operations)", r.problems, r.failedOps)
		}
	}
	b, s := base.vals, spun.vals
	t.Logf("sched.enq_ns %.0f -> %.0f, traced pkts/s %.0f -> %.0f, bare ns/event %.1f -> %.1f",
		b["sched.enq_ns"], s["sched.enq_ns"], b["traced_pkts_per_s"], s["traced_pkts_per_s"],
		b["eventq.bare_ns_per_event"], s["eventq.bare_ns_per_event"])
	if d := s["sched.enq_ns"] - b["sched.enq_ns"]; d < 0.8*spinNS || d > 1.5*spinNS {
		t.Errorf("sched.enq_ns moved by %.0f ns, want about the %d ns spin", d, spinNS)
	}
	if s["traced_pkts_per_s"] > 0.8*b["traced_pkts_per_s"] {
		t.Errorf("throughput %.0f -> %.0f pkts/s: the spin should cost at least a fifth", b["traced_pkts_per_s"], s["traced_pkts_per_s"])
	}
	if r := s["eventq.bare_ns_per_event"] / b["eventq.bare_ns_per_event"]; r < 0.7 || r > 1.4 {
		t.Errorf("eventq.bare_ns_per_event moved %.2fx; the spin is not in the event queue", r)
	}
	// The spin sits inside a sched span, so it must not leak into the
	// self time of the layers around it.
	if r := s["sim.deliver_self_ns"] / b["sim.deliver_self_ns"]; r > 1.4 {
		t.Errorf("sim.deliver_self_ns moved %.2fx; the spin was charged to the link", r)
	}
}

func TestWindowedQuantile(t *testing.T) {
	// 10 windows of 2000 samples; one window holds a stall.
	xs := make([]float64, 10*minWindow)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 0; i < minWindow; i++ {
		xs[i] = 1e6
	}
	if got := windowedQuantile(xs, 0.99); got > 100 {
		t.Errorf("windowed p99 = %g, want the stall confined to one window", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of 3,1,2 = %g", got)
	}
}
