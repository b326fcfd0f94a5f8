package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// TestCancelLenSteps is the regression test for cancellation
// bookkeeping: Cancel must decrement Len exactly once, never bump Steps,
// and a cancelled event must never fire. The cancelled events sit at the
// heap root, in the interior and at a leaf, at scales from sub-µs to
// months.
func TestCancelLenSteps(t *testing.T) {
	var q Queue
	fired := map[int]bool{}
	rec := func(arg any) { fired[arg.(int)] = true }

	hMid := q.Schedule(0.001, rec, 1)
	hMid2 := q.Schedule(0.002, rec, 2)
	hFar := q.Schedule(1e7, rec, 3)
	hNear := q.Schedule(3e-7, rec, 4)
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}

	// Peeking reports the minimum without firing anything.
	if tt, ok := q.PeekTime(); !ok || tt != 3e-7 {
		t.Fatalf("PeekTime = %v,%v", tt, ok)
	}
	if q.Steps() != 0 {
		t.Fatalf("Steps after peek = %d, want 0", q.Steps())
	}

	for i, h := range []Handle{hNear, hMid, hFar} {
		if !q.Cancel(h) {
			t.Fatalf("Cancel #%d returned false for a pending event", i)
		}
		if q.Cancel(h) {
			t.Fatalf("double Cancel #%d returned true", i)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("Len after 3 cancels = %d, want 1", q.Len())
	}
	if q.Steps() != 0 {
		t.Fatalf("Steps after cancels = %d, want 0", q.Steps())
	}

	q.Run()
	if q.Len() != 0 || q.Steps() != 1 {
		t.Fatalf("after Run: Len=%d Steps=%d, want 0/1", q.Len(), q.Steps())
	}
	if fired[1] || fired[3] || fired[4] || !fired[2] {
		t.Fatalf("fired = %v, want only id 2", fired)
	}
	// The handle of a fired event is stale.
	if q.Cancel(hMid2) {
		t.Fatal("Cancel of an already-fired event returned true")
	}
	// The zero Handle never cancels.
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel of zero Handle returned true")
	}
}

// TestHandleStaleAfterReuse pins the ABA guard: once a node is recycled
// for a new event, the old Handle (same node pointer, older seq) must not
// cancel the new event.
func TestHandleStaleAfterReuse(t *testing.T) {
	var q Queue
	var fired int
	count := func(any) { fired++ }
	h1 := q.Schedule(1, count, nil)
	if !q.Cancel(h1) {
		t.Fatal("first Cancel failed")
	}
	// The freed node is recycled for the next event.
	h2 := q.Schedule(2, count, nil)
	if q.Cancel(h1) {
		t.Fatal("stale Handle cancelled a recycled node's new event")
	}
	q.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if q.Cancel(h2) {
		t.Fatal("Cancel after fire returned true")
	}
}

// TestMixedScaleOrdering schedules events from microseconds to hours
// apart with heavy ties, and checks the execution order is the exact
// (time, seq) order.
func TestMixedScaleOrdering(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		type ev struct {
			time float64
			seq  int
		}
		var want []ev
		var got []ev
		scales := []float64{1e-6, 1e-3, 1, 60, 1e4}
		for i := 0; i < 400; i++ {
			tt := float64(rng.Intn(16)) * scales[rng.Intn(len(scales))]
			e := ev{time: tt, seq: i}
			want = append(want, e)
			q.AtCall(tt, func(arg any) { got = append(got, arg.(ev)) }, e)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
		q.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: Len = %d after Run", seed, q.Len())
		}
	}
}

// TestSubMicrosecondTies orders events packed within one microsecond,
// with exact ties among them: float64 time decides first, then the
// scheduling order.
func TestSubMicrosecondTies(t *testing.T) {
	var q Queue
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }
	base := 1.0
	times := []float64{base + 7e-7, base + 1e-9, base + 7e-7, base, base + 1e-9, base + 3e-10, base}
	for i, tt := range times {
		q.AtCall(tt, rec, i)
	}
	q.Run()
	want := []int{3, 6, 5, 1, 4, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestFarFutureCancels mixes events ~4 months out (1e7 s) with near ones,
// cancels some of each, and checks the survivors fire in (time, seq)
// order with the clock landing on each far-future time exactly.
func TestFarFutureCancels(t *testing.T) {
	var q Queue
	var got []int
	var nows []float64
	rec := func(arg any) {
		got = append(got, arg.(int))
		nows = append(nows, q.Now())
	}
	times := []float64{1e7, 2e-3, 1e7 + 1e-6, 1e7, 5, 1e7 + 0.5, 1e-6}
	hs := make([]Handle, len(times))
	for i, tt := range times {
		hs[i] = q.Schedule(tt, rec, i)
	}
	for _, i := range []int{3, 4, 6} {
		if !q.Cancel(hs[i]) {
			t.Fatalf("Cancel(%d) failed", i)
		}
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	// A far-future event scheduled after the cancels reuses a freed node.
	q.AtCall(1e7, rec, 7)
	q.Run()
	want := []int{1, 0, 7, 2, 5}
	wantNow := []float64{2e-3, 1e7, 1e7, 1e7 + 1e-6, 1e7 + 0.5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] || nows[i] != wantNow[i] {
			t.Fatalf("fired %v at %v, want %v at %v", got, nows, want, wantNow)
		}
	}
	for i, h := range hs {
		if q.Cancel(h) {
			t.Fatalf("Cancel(%d) after Run returned true", i)
		}
	}
}

// TestQueueMatchesModelWithCancels drives the queue and the sorted-slice
// model from FuzzEventQueue with an identical random schedule, cancelling
// a random subset, and requires the identical execution order of the
// survivors. Scheduling interleaves with stepping, so new events land
// behind, among and beyond the pending ones.
func TestQueueMatchesModelWithCancels(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var m fuzzModel
		var got, want []int
		var handles []Handle
		var ids []int
		id := 0
		rec := func(arg any) { got = append(got, arg.(int)) }
		schedule := func(n int) {
			for i := 0; i < n; i++ {
				tt := q.Now() + rng.Float64()*float64(rng.Intn(5000))*1e-3
				handles = append(handles, q.Schedule(tt, rec, id))
				ids = append(ids, id)
				m.schedule(tt, id)
				id++
			}
		}
		step := func() {
			q.Step()
			if id, ok := m.step(); ok {
				want = append(want, id)
			}
		}
		schedule(100)
		for round := 0; round < 20; round++ {
			// Cancel a few random outstanding handles.
			for i := 0; i < 3 && len(handles) > 0; i++ {
				k := rng.Intn(len(handles))
				if gotOK, wantOK := q.Cancel(handles[k]), m.cancel(ids[k]); gotOK != wantOK {
					t.Fatalf("seed %d: Cancel(id %d) = %v, model says %v", seed, ids[k], gotOK, wantOK)
				}
				handles = append(handles[:k], handles[k+1:]...)
				ids = append(ids[:k], ids[k+1:]...)
			}
			for i := 0; i < 10; i++ {
				step()
			}
			if q.Len() != len(m.evs) {
				t.Fatalf("seed %d: Len = %d, model has %d", seed, q.Len(), len(m.evs))
			}
			schedule(10)
		}
		for q.Len() > 0 {
			step()
		}
		if len(got) != len(want) || len(m.evs) != 0 {
			t.Fatalf("seed %d: queue fired %d, model fired %d (%d left)", seed, len(got), len(want), len(m.evs))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d: queue %d, model %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCancelZeroAlloc: the schedule/cancel cycle must not allocate in
// steady state — cancelled nodes return to the free list.
func TestCancelZeroAlloc(t *testing.T) {
	var q Queue
	count := func(any) {}
	// Warm the free list and the heap slice.
	hs := make([]Handle, 64)
	for i := range hs {
		hs[i] = q.Schedule(float64(i+1), count, nil)
	}
	for _, h := range hs {
		q.Cancel(h)
	}
	base := 100.0
	allocs := testing.AllocsPerRun(100, func() {
		for i := range hs {
			hs[i] = q.Schedule(base+float64(i), count, nil)
		}
		for _, h := range hs {
			if !q.Cancel(h) {
				t.Fatal("cancel failed")
			}
		}
		base += 100
	})
	if allocs != 0 {
		t.Fatalf("Schedule/Cancel cycle allocated %v times, want 0", allocs)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancelling everything", q.Len())
	}
}

// TestRunBefore pins the half-open window semantics used by the parallel
// topology runner: events strictly before the horizon run, events at the
// horizon wait, and the clock lands exactly on the horizon.
func TestRunBefore(t *testing.T) {
	var q Queue
	fired := map[float64]bool{}
	for _, tt := range []float64{1, 2, 3} {
		tt := tt
		q.At(tt, func() { fired[tt] = true })
	}
	q.RunBefore(2)
	if !fired[1] || fired[2] {
		t.Fatalf("RunBefore(2) fired %v", fired)
	}
	if q.Now() != 2 {
		t.Fatalf("Now = %v, want 2", q.Now())
	}
	// Scheduling exactly at the horizon from the next window is legal.
	q.At(2, func() { fired[2.5] = true })
	q.RunBefore(4)
	if !fired[2] || !fired[2.5] || !fired[3] {
		t.Fatalf("RunBefore(4) fired %v", fired)
	}
	if q.Now() != 4 {
		t.Fatalf("Now = %v, want 4", q.Now())
	}
}

// TestPeekThenEarlierPush pins that peeking commits to nothing: a push
// after a peek with an earlier (but still future) time must fire first
// regardless.
func TestPeekThenEarlierPush(t *testing.T) {
	var q Queue
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }
	q.AtCall(10, rec, 1)
	if tt, ok := q.PeekTime(); !ok || tt != 10 {
		t.Fatalf("PeekTime = %v,%v", tt, ok)
	}
	q.AtCall(1, rec, 2)
	q.AtCall(5, rec, 3)
	q.AtCall(10, rec, 4)
	q.Run()
	wantOrder := []int{2, 3, 1, 4}
	if len(got) != 4 {
		t.Fatalf("fired %v", got)
	}
	for i := range got {
		if got[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", got, wantOrder)
		}
	}
}
