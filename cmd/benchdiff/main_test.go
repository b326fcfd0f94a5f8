package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	oldB := map[string]benchEntry{
		"BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkB":    {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkC":    {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkGone": {NsPerOp: 100},
	}
	newB := map[string]benchEntry{
		"BenchmarkA":   {NsPerOp: 119, AllocsPerOp: 11}, // within 20% on both
		"BenchmarkB":   {NsPerOp: 50, AllocsPerOp: 1},   // faster, but 0 -> 1 alloc regresses
		"BenchmarkC":   {NsPerOp: 130, AllocsPerOp: 3},  // ns regression, alloc win
		"BenchmarkNew": {NsPerOp: 1},
	}
	ds := compare(oldB, newB, 0.20, false)
	if len(ds) != 3 {
		t.Fatalf("compared %d benchmarks, want 3 (intersection only)", len(ds))
	}
	byName := map[string]delta{}
	for _, d := range ds {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkA"]; d.Regressed() {
		t.Errorf("A within threshold flagged as regression: %+v", d)
	}
	if d := byName["BenchmarkB"]; !d.Regressed() || d.NsRegressed || !d.AllocsGrew {
		t.Errorf("B must regress on allocs (0 -> 1) only: %+v", d)
	}
	if d := byName["BenchmarkC"]; !d.NsRegressed || d.AllocsGrew {
		t.Errorf("C must regress on ns only: %+v", d)
	}
	// Names come back sorted so reports are stable.
	if ds[0].Name != "BenchmarkA" || ds[2].Name != "BenchmarkC" {
		t.Errorf("deltas not sorted: %v %v %v", ds[0].Name, ds[1].Name, ds[2].Name)
	}
}

func TestDeltaFormatting(t *testing.T) {
	d := delta{OldNs: 200, NewNs: 150, OldAllocs: 3, NewAllocs: 5}
	if got := d.NsDeltaPct(); got != "-25.0%" {
		t.Errorf("NsDeltaPct = %q, want -25.0%%", got)
	}
	if got := d.AllocsDelta(); got != "+2" {
		t.Errorf("AllocsDelta = %q, want +2", got)
	}
	if got := (delta{OldNs: 0, NewNs: 10}).NsDeltaPct(); got != "n/a" {
		t.Errorf("NsDeltaPct with no baseline = %q, want n/a", got)
	}
	if got := (delta{OldAllocs: 2, NewAllocs: 2}).AllocsDelta(); got != "+0" {
		t.Errorf("AllocsDelta unchanged = %q, want +0", got)
	}
}

func TestOnlyIn(t *testing.T) {
	oldB := map[string]benchEntry{"A": {}, "Gone2": {}, "Gone1": {}}
	newB := map[string]benchEntry{"A": {}, "New": {}}
	if got := onlyIn(oldB, newB); len(got) != 2 || got[0] != "Gone1" || got[1] != "Gone2" {
		t.Errorf("removed = %v, want sorted [Gone1 Gone2]", got)
	}
	if got := onlyIn(newB, oldB); len(got) != 1 || got[0] != "New" {
		t.Errorf("added = %v, want [New]", got)
	}
}

func TestCompareExactThreshold(t *testing.T) {
	oldB := map[string]benchEntry{"B": {NsPerOp: 100, AllocsPerOp: 5}}
	newB := map[string]benchEntry{"B": {NsPerOp: 120, AllocsPerOp: 6}}
	if d := compare(oldB, newB, 0.20, false)[0]; d.Regressed() {
		t.Errorf("exactly +20%% must not regress: %+v", d)
	}
}

func TestCompareAllocsOnly(t *testing.T) {
	oldB := map[string]benchEntry{
		"BenchmarkSlow":  {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkLeaky": {NsPerOp: 100, AllocsPerOp: 0},
	}
	newB := map[string]benchEntry{
		"BenchmarkSlow":  {NsPerOp: 500, AllocsPerOp: 10}, // 5x slower machine: not a regression here
		"BenchmarkLeaky": {NsPerOp: 100, AllocsPerOp: 1},  // 0 -> 1 alloc still is
	}
	ds := compare(oldB, newB, 0.20, true)
	byName := map[string]delta{}
	for _, d := range ds {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkSlow"]; d.Regressed() {
		t.Errorf("allocs-only must ignore ns growth: %+v", d)
	}
	if d := byName["BenchmarkLeaky"]; !d.Regressed() {
		t.Errorf("allocs-only must still catch 0 -> 1 allocs: %+v", d)
	}
}

// TestReportVanished: a baseline benchmark missing from the new run must
// be named and counted in the report, and must not change the regression
// count the exit status is derived from.
func TestReportVanished(t *testing.T) {
	oldF := benchFile{Benchmarks: map[string]benchEntry{
		"BenchmarkKept":  {NsPerOp: 100},
		"BenchmarkGoneB": {NsPerOp: 100},
		"BenchmarkGoneA": {NsPerOp: 100},
	}}
	newF := benchFile{Benchmarks: map[string]benchEntry{
		"BenchmarkKept":    {NsPerOp: 100},
		"BenchmarkRenamed": {NsPerOp: 100},
	}}
	var out strings.Builder
	regressions, err := report(&out, oldF, newF, "old.json", "new.json", 0.20, true)
	if err != nil || regressions != 0 {
		t.Fatalf("report = %d, %v; want 0 regressions, no error", regressions, err)
	}
	for _, want := range []string{
		"2 baseline benchmarks absent from new.json, not gated: BenchmarkGoneA, BenchmarkGoneB\n",
		"BenchmarkRenamed",
		"1 benchmarks compared, 0 regressions",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	// Nothing vanished: no summary line.
	out.Reset()
	if _, err := report(&out, newF, newF, "a.json", "b.json", 0.20, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "absent from") {
		t.Errorf("report names vanished benchmarks when none are:\n%s", out.String())
	}

	// No overlap at all stays an error (exit status 2 in main).
	if _, err := report(&out, oldF, benchFile{Benchmarks: map[string]benchEntry{"X": {}}}, "a", "b", 0.20, true); err == nil {
		t.Error("report with no common benchmarks returned no error")
	}
}
