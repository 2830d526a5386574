package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rtvirt/internal/simtime"
)

func TestFireOrder(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func(simtime.Time) { got = append(got, 3) })
	q.Schedule(10, func(simtime.Time) { got = append(got, 1) })
	q.Schedule(20, func(simtime.Time) { got = append(got, 2) })
	for q.Fire() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.Schedule(42, func(simtime.Time) { got = append(got, i) })
	}
	for q.Fire() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of insertion order at %d: got %d", i, v)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	h := q.Schedule(5, func(simtime.Time) { fired = true })
	if !h.Active() {
		t.Fatal("freshly scheduled handle not active")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	q.Cancel(h)
	if q.Len() != 0 {
		t.Fatalf("Len after cancel = %d, want 0", q.Len())
	}
	if h.Active() {
		t.Fatal("cancelled handle still active")
	}
	q.Cancel(h)        // idempotent
	q.Cancel(Handle{}) // zero handle is inert
	for q.Fire() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// Regression: cancelling a handle whose event already fired must be a
// no-op. The pre-Handle implementation decremented q.len in this case,
// driving Len negative and desynchronizing it from the heap.
func TestCancelAfterFireDoesNotCorruptLen(t *testing.T) {
	var q Queue
	h := q.Schedule(1, func(simtime.Time) {})
	q.Schedule(2, func(simtime.Time) {})
	if !q.Fire() { // fires h's event
		t.Fatal("Fire returned false")
	}
	if h.Active() {
		t.Fatal("fired handle still active")
	}
	q.Cancel(h)
	if q.Len() != 1 {
		t.Fatalf("Len after cancel-after-fire = %d, want 1", q.Len())
	}
	if !q.Fire() {
		t.Fatal("remaining event did not fire")
	}
	if q.Len() != 0 {
		t.Fatalf("Len drained = %d, want 0", q.Len())
	}
}

// Regression: a stale handle must not cancel an unrelated event that
// recycled the same record.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	var q Queue
	h1 := q.Schedule(1, func(simtime.Time) {})
	q.Fire() // record goes to the free list
	fired := false
	h2 := q.Schedule(2, func(simtime.Time) { fired = true }) // reuses the record
	q.Cancel(h1)                                             // stale — must not touch h2's event
	if !h2.Active() {
		t.Fatal("recycled event killed by stale handle")
	}
	for q.Fire() {
	}
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	var got []int
	var hs []Handle
	for i := 0; i < 10; i++ {
		i := i
		hs = append(hs, q.Schedule(simtime.Time(i), func(simtime.Time) { got = append(got, i) }))
	}
	q.Cancel(hs[3])
	q.Cancel(hs[7])
	for q.Fire() {
	}
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	if q.PeekTime() != simtime.Never {
		t.Fatal("empty queue PeekTime should be Never")
	}
	q.Schedule(99, func(simtime.Time) {})
	h := q.Schedule(7, func(simtime.Time) {})
	if q.PeekTime() != 7 {
		t.Fatalf("PeekTime = %v, want 7", q.PeekTime())
	}
	// Lazy cancellation: PeekTime must skip the tombstone at the top.
	q.Cancel(h)
	if q.PeekTime() != 99 {
		t.Fatalf("PeekTime after cancelling head = %v, want 99", q.PeekTime())
	}
}

func TestHandleAt(t *testing.T) {
	var q Queue
	h := q.Schedule(1234, func(simtime.Time) {})
	if h.At() != 1234 {
		t.Fatalf("At = %v, want 1234", h.At())
	}
	q.Cancel(h)
	if h.At() != simtime.Never {
		t.Fatalf("At on inert handle = %v, want Never", h.At())
	}
}

func TestFireReceivesScheduledTime(t *testing.T) {
	var q Queue
	var at simtime.Time
	q.Schedule(777, func(now simtime.Time) { at = now })
	q.Fire()
	if at != 777 {
		t.Fatalf("callback now = %v, want 777", at)
	}
}

// Pooling must not allocate on the steady-state schedule→fire cycle, and a
// callback that reschedules immediately must be able to reuse the record
// it is firing from.
func TestRescheduleFromCallbackReusesRecord(t *testing.T) {
	var q Queue
	count := 0
	var tick func(now simtime.Time)
	tick = func(now simtime.Time) {
		count++
		if count < 100 {
			q.Schedule(now+1, tick)
		}
	}
	q.Schedule(0, tick)
	for q.Fire() {
	}
	if count != 100 {
		t.Fatalf("ticked %d times, want 100", count)
	}
	if n := len(q.free); n != 1 {
		t.Fatalf("free list holds %d records after self-rescheduling loop, want 1", n)
	}
}

func TestCompactionBoundsTombstones(t *testing.T) {
	var q Queue
	// Repeatedly cancel-and-reschedule a far-future event, the hv.setEvent
	// pattern. Without compaction the heap grows without bound because the
	// clock never reaches the tombstones.
	h := q.Schedule(1_000_000, func(simtime.Time) {})
	for i := 0; i < 10_000; i++ {
		q.Cancel(h)
		h = q.Schedule(simtime.Time(1_000_000+i), func(simtime.Time) {})
	}
	if len(q.h) > 256 {
		t.Fatalf("heap holds %d entries for 1 live event; compaction failed", len(q.h))
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// Property: firing a randomly scheduled set of events yields them in sorted
// time order, and every live event fires exactly once.
func TestQuickSortedOrder(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		var fired []simtime.Time
		for _, v := range times {
			at := simtime.Time(int64(v) + 1<<15)
			q.Schedule(at, func(now simtime.Time) { fired = append(fired, now) })
		}
		for q.Fire() {
		}
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: same-instant events fire in insertion order even when records
// are recycled between batches (stability must come from seq, not from
// record identity).
func TestQuickStableOrderWithRecycling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var got []int
		next := 0
		for batch := 0; batch < 5; batch++ {
			at := simtime.Time(batch * 100)
			for i := 0; i < 1+rng.Intn(20); i++ {
				id := next
				next++
				q.Schedule(at, func(simtime.Time) { got = append(got, id) })
			}
			for q.Fire() {
			}
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return len(got) == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of Schedule/Cancel/Fire keep Len equal to
// scheduled − cancelled − fired, and fire exactly the non-cancelled events
// in time order.
func TestQuickCancelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var fired []simtime.Time
		var hs []Handle
		scheduled, cancelled, firedCount := 0, 0, 0
		for i := 0; i < 500; i++ {
			switch r := rng.Intn(6); {
			case r <= 2 || len(hs) == 0:
				h := q.Schedule(simtime.Time(rng.Int63n(1000)), func(now simtime.Time) { fired = append(fired, now) })
				hs = append(hs, h)
				scheduled++
			case r <= 4:
				h := hs[rng.Intn(len(hs))]
				if h.Active() {
					cancelled++
				}
				q.Cancel(h)
			default:
				if q.Fire() {
					firedCount++
				}
			}
			if q.Len() != scheduled-cancelled-firedCount {
				return false
			}
		}
		want := q.Len()
		drained := 0
		for q.Fire() {
			drained++
		}
		if drained != want || q.Len() != 0 {
			return false
		}
		return len(fired) == scheduled-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleMovesEventInPlace(t *testing.T) {
	var q Queue
	var fired []simtime.Time
	record := func(now simtime.Time) { fired = append(fired, now) }
	h := q.Schedule(100, record)
	q.Schedule(60, record)

	h2 := q.Reschedule(h, 50) // decrease-key past the other event
	if h.Active() {
		t.Fatal("old handle still active after Reschedule")
	}
	if !h2.Active() || h2.At() != 50 {
		t.Fatalf("new handle At = %v, want 50", h2.At())
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (reschedule must not grow the queue)", q.Len())
	}
	if q.PeekTime() != 50 {
		t.Fatalf("PeekTime = %v, want 50", q.PeekTime())
	}
	h3 := q.Reschedule(h2, 70) // increase-key back past it
	for q.Fire() {
	}
	if len(fired) != 2 || fired[0] != 60 || fired[1] != 70 {
		t.Fatalf("fired %v, want [60 70]", fired)
	}
	if h3.Active() {
		t.Fatal("handle still active after firing")
	}
}

// Reschedule must behave exactly like Cancel+Schedule for same-instant
// FIFO ordering: the moved event takes a fresh insertion sequence number,
// so it fires after events already queued for that instant.
func TestRescheduleFIFOSemantics(t *testing.T) {
	var q Queue
	var got []string
	a := q.Schedule(10, func(simtime.Time) { got = append(got, "a") })
	q.Schedule(10, func(simtime.Time) { got = append(got, "b") })
	q.Reschedule(a, 10) // same instant: a now ranks after b
	for q.Fire() {
	}
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("fire order %v, want [b a]", got)
	}
}

func TestRescheduleInactivePanics(t *testing.T) {
	var q Queue
	h := q.Schedule(1, func(simtime.Time) {})
	q.Fire()
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule of a fired handle did not panic")
		}
	}()
	q.Reschedule(h, 2)
}

// Rescheduling the root to a later time sifts a child up; if that child is
// a tombstone it must be discarded immediately so PeekTime (a plain field
// read) stays truthful.
func TestRescheduleRootPastTombstone(t *testing.T) {
	var q Queue
	var fired []simtime.Time
	record := func(now simtime.Time) { fired = append(fired, now) }
	a := q.Schedule(1, record)
	b := q.Schedule(2, record)
	q.Schedule(3, record)
	q.Cancel(b) // tombstone below the root
	q.Reschedule(a, 5)
	if q.PeekTime() != 3 {
		t.Fatalf("PeekTime = %v, want 3 (tombstone must not surface)", q.PeekTime())
	}
	for q.Fire() {
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("fired %v, want [3 5]", fired)
	}
}

// Fire must skip tombstones that surface during its descent without a
// separate drain pass, and cancelling the head must advance PeekTime
// immediately.
func TestFireSkipsTombstoneChain(t *testing.T) {
	var q Queue
	var fired []simtime.Time
	record := func(now simtime.Time) { fired = append(fired, now) }
	var hs []Handle
	for i := 1; i <= 8; i++ {
		hs = append(hs, q.Schedule(simtime.Time(i), record))
	}
	// Tombstone a contiguous chain 2..6 behind the live head.
	for _, h := range hs[1:6] {
		q.Cancel(h)
	}
	if q.PeekTime() != 1 {
		t.Fatalf("PeekTime = %v, want 1", q.PeekTime())
	}
	if !q.Fire() { // pops 1; the tombstone chain folds into this pop
		t.Fatal("Fire returned false")
	}
	if q.PeekTime() != 7 {
		t.Fatalf("PeekTime after fold = %v, want 7", q.PeekTime())
	}
	for q.Fire() {
	}
	want := []simtime.Time{1, 7, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// Regression: with compaction triggered only from Cancel, fires can shrink
// the live population far below half the heap without any cancel running
// the check, and a subsequent Schedule would grow the heap past the
// 2×live bound. Schedule must run the check too.
func TestScheduleTriggersCompaction(t *testing.T) {
	var q Queue
	nop := func(simtime.Time) {}
	var hs []Handle
	for i := 0; i < 400; i++ {
		hs = append(hs, q.Schedule(simtime.Time(1000+i), nop))
	}
	// Tombstone the far half (never the head, so nothing pops eagerly);
	// 2×live == len exactly, so no Cancel-side compaction runs.
	for _, h := range hs[200:] {
		q.Cancel(h)
	}
	// Fires shrink live without running any compaction check.
	for i := 0; i < 120; i++ {
		q.Fire()
	}
	q.Schedule(1_000_000, nop) // must notice the tombstone excess
	if bound := 2 * q.Len(); len(q.h) >= 64 && len(q.h) > bound {
		t.Fatalf("heap holds %d slots for %d live events (bound %d); Schedule did not compact",
			len(q.h), q.Len(), bound)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Schedule(simtime.Time(rng.Int63n(1<<30)), func(simtime.Time) {})
		if q.Len() > 1024 {
			q.Fire()
		}
	}
	for q.Fire() {
	}
}

// BenchmarkKernelMix is the headline kernel blend: per event fired, one standing
// per-PCPU timer moves (Reschedule), one fresh event is admitted
// (Schedule), and the head pops (Fire) — over a population of 256 standing
// handles. BENCH_3.json records this mix before and after the
// intrusive-heap rewrite (the pre-rewrite implementation ran the blend as
// Cancel+Schedule because it had no in-place reschedule).
func BenchmarkKernelMix(b *testing.B) {
	var q Queue
	nop := func(simtime.Time) {}
	rng := rand.New(rand.NewSource(1))
	standing := make([]Handle, 256)
	for i := range standing {
		standing[i] = q.Schedule(simtime.Time(1_000_000+i), nop)
	}
	now := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(standing)
		standing[k] = q.Reschedule(standing[k], now+1_000_000+simtime.Time(rng.Int63n(1_000_000)))
		q.Schedule(now+1, nop)
		q.Fire()
		now++
	}
}

// BenchmarkKernelMixTimer is the timer-heavy variant: four standing timers move
// per fresh admission and fire, the shape of a multi-PCPU host where every
// dispatch re-arms Kick and VCPURecheck events on several PCPUs.
func BenchmarkKernelMixTimer(b *testing.B) {
	var q Queue
	nop := func(simtime.Time) {}
	rng := rand.New(rand.NewSource(2))
	standing := make([]Handle, 256)
	for i := range standing {
		standing[i] = q.Schedule(simtime.Time(1_000_000+i), nop)
	}
	now := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			k := (i*4 + j) % len(standing)
			standing[k] = q.Reschedule(standing[k], now+1_000_000+simtime.Time(rng.Int63n(1_000_000)))
		}
		q.Schedule(now+1, nop)
		q.Fire()
		now++
	}
}

// BenchmarkKernelMixChurn is the churn-heavy variant: short-lived events are
// admitted, sometimes cancelled, and popped in quick succession — the
// shape of a job-arrival burst where wakeups are created and consumed
// faster than any standing timer moves. This stresses the insert/remove
// paths rather than reschedule.
func BenchmarkKernelMixChurn(b *testing.B) {
	var q Queue
	nop := func(simtime.Time) {}
	rng := rand.New(rand.NewSource(3))
	var pending [64]Handle
	now := simtime.Time(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pending)
		q.Cancel(pending[k]) // often a stale handle: the no-op cancel path
		pending[k] = q.Schedule(now+simtime.Time(rng.Int63n(4096)), nop)
		q.Schedule(now+1, nop)
		q.Fire()
		q.Fire()
		now++
	}
	b.StopTimer()
	for q.Fire() {
	}
}

// BenchmarkCancelReschedule measures the hv.setEvent hot pattern: cancel a
// pending wakeup and schedule a new one. The seed implementation paid a
// heap.Remove plus a fresh allocation per iteration.
func BenchmarkCancelReschedule(b *testing.B) {
	var q Queue
	for i := 0; i < 512; i++ {
		q.Schedule(simtime.Time(1<<40+i), func(simtime.Time) {})
	}
	h := q.Schedule(1<<20, func(simtime.Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Cancel(h)
		h = q.Schedule(simtime.Time(1<<20+i%1024), func(simtime.Time) {})
	}
}
