// Command benchdiff compares two BENCH_*.json snapshots (the schema written
// alongside each performance PR) and flags regressions: any benchmark whose
// ns_per_op or allocs_per_op grew beyond the threshold (default 20%). The
// exit status is 1 when a regression is found, so CI can gate on it:
//
//	go run ./cmd/benchdiff BENCH_1.json BENCH_2.json
//	go run ./cmd/benchdiff -threshold 0.10 old.json new.json
//
// Absolute numbers are machine-dependent; benchdiff only looks at ratios
// between two files recorded on the same machine, which is the signal the
// BENCH_*.json trajectory is designed to carry.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type benchEntry struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type benchFile struct {
	Schema     string                `json:"schema"`
	Recorded   string                `json:"recorded"`
	Note       string                `json:"note"`
	CPU        string                `json:"cpu"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

// delta is one compared benchmark. Regressed reports whether either metric
// grew past the threshold.
type delta struct {
	Name        string
	OldNs       float64
	NewNs       float64
	OldAllocs   float64
	NewAllocs   float64
	NsRatio     float64
	AllocsGrew  bool
	NsRegressed bool
}

func (d delta) Regressed() bool { return d.NsRegressed || d.AllocsGrew }

// NsDeltaPct is the signed ns/op change in percent ("n/a" when the old
// file has no timing for the benchmark).
func (d delta) NsDeltaPct() string {
	if d.OldNs <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (d.NewNs/d.OldNs-1)*100)
}

// AllocsDelta is the signed allocs/op change; allocation counts are small
// integers here, so an absolute delta reads better than a percentage (and
// stays defined for the zero-alloc baselines the gate protects).
func (d delta) AllocsDelta() string {
	return fmt.Sprintf("%+.0f", d.NewAllocs-d.OldAllocs)
}

// onlyIn returns the benchmark names present in a but not in b, sorted.
// Added or removed benchmarks are not regressions, but a silent rename
// would otherwise drop a benchmark out of the gate unnoticed.
func onlyIn(a, b map[string]benchEntry) []string {
	var names []string
	for name := range a {
		if _, ok := b[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// compare pairs the benchmarks present in both files, in name order.
// ns_per_op regresses when it grows by more than threshold (skipped
// entirely in allocsOnly mode: time ratios between different machines
// carry no signal, allocation counts do). allocs_per_op regresses when it
// grows by more than threshold — or at all when the old count was zero,
// because zero-alloc paths are load-bearing guarantees here, not
// accidents.
func compare(oldB, newB map[string]benchEntry, threshold float64, allocsOnly bool) []delta {
	names := make([]string, 0, len(oldB))
	for name := range oldB {
		if _, ok := newB[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]delta, 0, len(names))
	for _, name := range names {
		o, n := oldB[name], newB[name]
		d := delta{
			Name:  name,
			OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: n.AllocsPerOp,
		}
		if o.NsPerOp > 0 {
			d.NsRatio = n.NsPerOp / o.NsPerOp
			d.NsRegressed = !allocsOnly && d.NsRatio > 1+threshold
		}
		if o.AllocsPerOp == 0 {
			d.AllocsGrew = n.AllocsPerOp > 0
		} else {
			d.AllocsGrew = n.AllocsPerOp/o.AllocsPerOp > 1+threshold
		}
		out = append(out, d)
	}
	return out
}

func load(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return f, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}

// report writes the comparison of oldF (read from oldPath) against newF
// (from newPath) to w and returns the regression count. Benchmarks present
// in only one file are listed by name; baseline benchmarks absent from the
// new run are also counted in the summary, because they have silently left
// the gate.
func report(w io.Writer, oldF, newF benchFile, oldPath, newPath string, threshold float64, allocsOnly bool) (int, error) {
	if oldF.CPU != "" && newF.CPU != "" && oldF.CPU != newF.CPU {
		fmt.Fprintf(w, "note: files were recorded on different CPUs (%q vs %q); ratios may mislead\n", oldF.CPU, newF.CPU)
	}
	deltas := compare(oldF.Benchmarks, newF.Benchmarks, threshold, allocsOnly)
	if len(deltas) == 0 {
		return 0, errors.New("no common benchmarks")
	}
	regressions := 0
	fmt.Fprintf(w, "%-48s %14s %14s %9s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ ns/op", "old allocs", "new allocs", "Δ allocs")
	for _, d := range deltas {
		mark := ""
		if d.Regressed() {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-48s %14.1f %14.1f %9s %10.0f %10.0f %8s%s\n",
			d.Name, d.OldNs, d.NewNs, d.NsDeltaPct(),
			d.OldAllocs, d.NewAllocs, d.AllocsDelta(), mark)
	}
	for _, name := range onlyIn(newF.Benchmarks, oldF.Benchmarks) {
		fmt.Fprintf(w, "%-48s only in %s\n", name, newPath)
	}
	vanished := onlyIn(oldF.Benchmarks, newF.Benchmarks)
	for _, name := range vanished {
		fmt.Fprintf(w, "%-48s only in %s\n", name, oldPath)
	}
	fmt.Fprintf(w, "%d benchmarks compared, %d regressions (threshold %+.0f%%)\n",
		len(deltas), regressions, threshold*100)
	if len(vanished) > 0 {
		fmt.Fprintf(w, "%d baseline benchmarks absent from %s, not gated: %s\n",
			len(vanished), newPath, strings.Join(vanished, ", "))
	}
	return regressions, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.20, "relative growth in ns/op or allocs/op counted as a regression")
	allocsOnly := flag.Bool("allocs-only", false, "gate on allocs_per_op only (machine-independent; the CI mode, where the baseline was recorded on different hardware)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.20] [-allocs-only] OLD.json NEW.json")
		os.Exit(2)
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	regressions, err := report(os.Stdout, oldF, newF, flag.Arg(0), flag.Arg(1), *threshold, *allocsOnly)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if regressions > 0 {
		os.Exit(1)
	}
}
