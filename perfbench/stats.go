package main

import (
	"math"
	"runtime"
	"sort"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics), leaving xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

// Latency percentiles are reported as the median, over consecutive
// windows of the run's samples, of each window's percentile: a host stall
// then moves the windows it falls in, not the whole run. A window holds
// at least minWindow samples (so a p99 has 20 samples beyond it), and a
// run has at most maxWindows of them.
const (
	minWindow  = 2000
	maxWindows = 200
)

// windowedQuantile returns the median over windows of samples (in time
// order) of each window's q-quantile.
func windowedQuantile(samples []float64, q float64) float64 {
	windows := min(max(len(samples)/minWindow, 1), maxWindows)
	size := len(samples) / windows
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		per = append(per, quantile(samples[w*size:(w+1)*size], q))
	}
	return median(per)
}

// windowedRate returns the median, over the same windows, of the rate
// at which rounds of perRound items completed: items per second of the
// window's summed round durations (durations in µs).
func windowedRate(durations []float64, perRound float64) float64 {
	windows := min(max(len(durations)/minWindow, 1), maxWindows)
	size := len(durations) / windows
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		sum := 0.0
		for _, d := range durations[w*size : (w+1)*size] {
			sum += d
		}
		per = append(per, float64(size)*perRound/(sum/1e6))
	}
	return median(per)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsToMicros returns nanosecond samples as microseconds.
func nsToMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// digest is a 64-bit FNV-1a hash over a schedule: one (flow, per-flow
// sequence, time) triple per delivered packet, in delivery order.
type digest uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d *digest) add(flow int, seq int64, t float64) {
	h := uint64(*d)
	for _, v := range [3]uint64{uint64(flow), uint64(seq), math.Float64bits(t)} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	*d = digest(h)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeapMB collects garbage and returns the live heap in MiB. Callers
// keep the workload reachable across the call. The second collection
// frees what the first one had to keep because it was allocated during
// marking.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
