// Package eventq provides the cancellable pending-event queue that drives
// the discrete-event simulator.
//
// Events fire in non-decreasing time order; events scheduled for the same
// instant fire in FIFO order of insertion so that simulation runs are fully
// deterministic.
//
// The queue is an intrusive 4-ary min-heap specialized to *Event: each
// record carries its own heap index, so there is no container/heap
// indirection and no interface boxing on the hot path, and a pending event
// can be moved in place (Reschedule) with a single sift instead of a
// cancel plus a fresh insert. The 4-ary layout halves the tree depth of a
// binary heap; the extra child comparisons per level are cheap linear
// scans over adjacent pointers.
//
// Event records are pooled on a per-queue free list and reused across
// Schedule calls, so the steady-state hot path (schedule → fire →
// reschedule) allocates nothing. Cancellation is lazy: Cancel marks the
// event as a tombstone and leaves it in the heap; tombstones are discarded
// when they surface at the root or when a compaction pass rebuilds the
// heap. The root is kept live at all times (tombstones are popped the
// moment they surface), which makes PeekTime a plain field read. Because
// records are recycled, callers hold a generation-checked Handle rather
// than a raw pointer — a Handle to an event that has fired, been
// cancelled, or been reused is simply inert.
package eventq

import (
	"fmt"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

const (
	statePending   byte = iota // queued, will fire
	stateTombstone             // cancelled, still occupying a heap slot
	stateFree                  // recycled onto the free list
)

// arity is the heap fan-out. Children of node i are arity*i+1 ...
// arity*i+arity; the parent of node i is (i-1)/arity.
const arity = 4

// Payload is the closure-free form of a scheduled event: plain data naming
// a registered handler plus a (Kind, Owner) pair and two scalar arguments.
// Because a Payload captures no pointers, a queue whose pending events all
// carry payloads can be deep-copied (CloneInto) — the copy re-binds each
// event to the forked handler of the same ID instead of to stale closures.
//
// Field meaning is owned by the handler: Kind selects one of its event
// types, Owner names the entity the event belongs to (a PCPU, VCPU, task,
// or deployment ID), and Arg0/Arg1 carry event-specific scalars (times,
// target IDs).
type Payload struct {
	Handler int32
	Kind    uint16
	Owner   int32
	Arg0    int64
	Arg1    int64
}

// Event is the pooled internal record for one scheduled callback. Callers
// never hold an *Event directly; they hold a Handle.
type Event struct {
	at  simtime.Time
	seq uint64 // insertion order tiebreak
	gen uint64 // bumped on every recycle; validates Handles
	fn  func(now simtime.Time)
	p   Payload // typed form; used when fn is nil
	// idx is the record's heap slot; -1 when not queued.
	idx   int32
	state byte
}

// Handle identifies one scheduled event. The zero Handle is valid and
// inert: Active reports false and Cancel is a no-op. A Handle goes inert
// the moment its event fires, is cancelled, or is rescheduled (Reschedule
// returns the replacement) — even if the underlying record is later reused
// for an unrelated event, the generation check keeps the old Handle from
// touching it.
type Handle struct {
	e   *Event
	gen uint64
}

// Active reports whether the event is still queued and will fire.
func (h Handle) Active() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.state == statePending
}

// At reports the instant the event is scheduled for, or simtime.Never if
// the Handle is no longer active.
func (h Handle) At() simtime.Time {
	if !h.Active() {
		return simtime.Never
	}
	return h.e.at
}

// Queue is a time-ordered queue of events. The zero value is ready to use.
// A Queue (like the simulator it drives) is single-threaded; concurrent
// simulation runs each own their own Queue.
//
// Invariant: when the heap is non-empty its root is a live (pending)
// event. Every mutation that could surface a tombstone at the root pops it
// immediately, so PeekTime and Fire never have to search.
type Queue struct {
	// Dispatch receives every fired payload event. The queue's owner (the
	// simulator) sets it once at construction; it is deliberately not part
	// of CloneInto so a forked queue is re-bound to its own owner.
	Dispatch func(now simtime.Time, p Payload)

	h    []*Event
	free []*Event // recycled records, bounded by peak live events
	seq  uint64
	live int // pending (non-tombstone) events
}

// Len reports the number of live events in the queue.
func (q *Queue) Len() int { return q.live }

// less orders events by (time, insertion sequence).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Schedule enqueues fn to run at instant at and returns a Handle that can
// be used to cancel it.
func (q *Queue) Schedule(at simtime.Time, fn func(now simtime.Time)) Handle {
	if fn == nil {
		panic("eventq: Schedule with nil callback")
	}
	e := q.insert(at)
	e.fn = fn
	return Handle{e: e, gen: e.gen}
}

// SchedulePayload enqueues a typed event. It is ordered exactly as a
// Schedule call at the same instant would be (same seq counter), so
// converting a closure event to a payload event at the same call site
// preserves same-instant FIFO order bit for bit.
func (q *Queue) SchedulePayload(at simtime.Time, p Payload) Handle {
	e := q.insert(at)
	e.p = p
	return Handle{e: e, gen: e.gen}
}

// insert allocates (or recycles) a pending record at instant at and places
// it in the heap. The caller fills in the callback or payload.
func (q *Queue) insert(at simtime.Time) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{}
	}
	e.at, e.seq, e.state = at, q.seq, statePending
	q.seq++
	q.live++
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
	// Tombstones accumulate without any Cancel running when fires shrink
	// the live population; checking here too keeps the heap length bounded
	// by max(64, 2×live) no matter how operations interleave.
	q.maybeCompact()
	return e
}

// Cancel removes the event from the queue if it has not fired yet. It is
// idempotent and inert on zero, fired, cancelled, and recycled Handles —
// in particular, cancelling after the event fired cannot corrupt Len.
func (q *Queue) Cancel(h Handle) {
	if !h.Active() {
		return
	}
	e := h.e
	e.state = stateTombstone
	e.fn = nil
	q.live--
	if e.idx == 0 {
		// Keep the root live so PeekTime stays a field read.
		q.fixRoot()
		return
	}
	q.maybeCompact()
}

// Reschedule moves a still-pending event to instant at, keeping its
// callback, and returns the replacement Handle (the one passed in goes
// inert). It is semantically identical to Cancel followed by Schedule with
// the same callback — in particular the event is assigned a fresh
// insertion sequence number, so among events scheduled for the same
// instant it fires after those already queued, exactly as a fresh insert
// would. Unlike the cancel/insert round trip it leaves no tombstone and
// performs a single in-place sift (decrease- or increase-key).
//
// Rescheduling an inactive Handle panics: the callback of a fired or
// cancelled event is gone, so there is nothing to move — callers that can
// race a firing check Active first.
func (q *Queue) Reschedule(h Handle, at simtime.Time) Handle {
	if !h.Active() {
		panic("eventq: Reschedule of inactive handle")
	}
	e := h.e
	e.gen++ // invalidate the old handle, as cancel+schedule would
	e.at = at
	e.seq = q.seq
	q.seq++
	i := int(e.idx)
	q.siftUp(i)
	if int(e.idx) == i {
		q.siftDown(i)
	}
	// An increase-key at the root pulls a child up; it may be a tombstone.
	q.fixRoot()
	return Handle{e: e, gen: e.gen}
}

// PeekTime reports the firing time of the earliest live event, or
// simtime.Never when the queue is empty. O(1): the root is always live.
func (q *Queue) PeekTime() simtime.Time {
	if len(q.h) == 0 {
		return simtime.Never
	}
	return q.h[0].at
}

// Fire pops the earliest live event and invokes its callback with now set
// to the event's scheduled time. It reports false when the queue is empty.
// The event record is recycled before the callback runs, so a callback
// that immediately reschedules reuses it without allocating. Tombstone
// skipping is folded into the pop: the root is live by invariant, so Fire
// is a single heap descent (plus one per tombstone that the descent
// surfaces, which is the work that removes it).
func (q *Queue) Fire() bool {
	if len(q.h) == 0 {
		return false
	}
	e := q.removeRoot()
	q.fixRoot()
	q.live--
	at, fn, p := e.at, e.fn, e.p
	q.recycle(e)
	if fn != nil {
		fn(at)
	} else {
		q.Dispatch(at, p)
	}
	return true
}

// removeRoot detaches the heap root and restores heap shape (one descent).
func (q *Queue) removeRoot() *Event {
	e := q.h[0]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		last.idx = 0
		q.siftDown(0)
	}
	e.idx = -1
	return e
}

// fixRoot discards tombstones sitting at the root, restoring the live-root
// invariant.
func (q *Queue) fixRoot() {
	for len(q.h) > 0 && q.h[0].state == stateTombstone {
		q.recycle(q.removeRoot())
	}
}

// siftUp moves the event at index i toward the root until its parent is
// not larger. Displaced ancestors shift down one level each; the moving
// event is written once at its final slot.
func (q *Queue) siftUp(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / arity
		pe := q.h[p]
		if !less(e, pe) {
			break
		}
		q.h[i] = pe
		pe.idx = int32(i)
		i = p
	}
	q.h[i] = e
	e.idx = int32(i)
}

// siftDown moves the event at index i toward the leaves until no child is
// smaller.
func (q *Queue) siftDown(i int) {
	e := q.h[i]
	n := len(q.h)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		mc := q.h[c]
		for j := c + 1; j < end; j++ {
			if less(q.h[j], mc) {
				m, mc = j, q.h[j]
			}
		}
		if !less(mc, e) {
			break
		}
		q.h[i] = mc
		mc.idx = int32(i)
		i = m
	}
	q.h[i] = e
	e.idx = int32(i)
}

// maybeCompact rebuilds the heap from live events when tombstones dominate
// it, bounding memory for workloads that cancel far-future events faster
// than the clock reaches them. Both Cancel and Schedule run the check, so
// the bound holds under any interleaving of the two.
func (q *Queue) maybeCompact() {
	if len(q.h) < 64 || q.live*2 >= len(q.h) {
		return
	}
	kept := q.h[:0]
	for _, e := range q.h {
		if e.state == statePending {
			kept = append(kept, e)
		} else {
			q.recycle(e)
		}
	}
	for i := len(kept); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = kept
	n := len(kept)
	for i, e := range kept {
		e.idx = int32(i)
	}
	if n > 1 {
		for i := (n - 2) / arity; i >= 0; i-- {
			q.siftDown(i)
		}
	}
}

// recycle returns a record to the free list, invalidating outstanding
// Handles to it.
func (q *Queue) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.p = Payload{}
	e.state = stateFree
	e.idx = -1
	q.free = append(q.free, e)
}

// CloneInto deep-copies the queue's pending events into dst, which must be
// empty (its Dispatch hook, set by dst's owner, is left untouched). Every
// pending event keeps its (at, seq) pair and generation exactly, and the
// seq counter is carried over, so the copy fires the same events in the
// same order and numbers future insertions identically — the forked run is
// bit-identical to the original. Tombstones and the free list are not
// copied; they are unobservable.
//
// Each old record's clone is memoized in ctx so callers can remap the
// Handles they hold (CloneHandle). CloneInto fails if any pending event
// still carries a closure: a closure captures pointers into the old world,
// so copying it would make the fork mutate its parent.
func (q *Queue) CloneInto(dst *Queue, ctx *clone.Ctx) error {
	closures := 0
	dst.h = make([]*Event, 0, q.live)
	for _, e := range q.h {
		if e.state != statePending {
			continue
		}
		if e.fn != nil {
			closures++
			continue
		}
		ne := &Event{at: e.at, seq: e.seq, gen: e.gen, p: e.p, state: statePending}
		ctx.Put(e, ne)
		dst.h = append(dst.h, ne)
	}
	if closures > 0 {
		return fmt.Errorf("eventq: %d pending closure event(s); only typed payload events can be forked", closures)
	}
	dst.seq = q.seq
	dst.live = len(dst.h)
	n := len(dst.h)
	for i, e := range dst.h {
		e.idx = int32(i)
	}
	// Heapify; pop order is total on (at, seq), so layout differences from
	// the source heap are unobservable.
	if n > 1 {
		for i := (n - 2) / arity; i >= 0; i-- {
			dst.siftDown(i)
		}
	}
	return nil
}

// CloneHandle maps a Handle into a queue previously copied with CloneInto
// using the same ctx. Inactive handles (zero, fired, cancelled) map to the
// inert zero Handle; active ones map to the clone of their event and stay
// active.
func CloneHandle(ctx *clone.Ctx, h Handle) Handle {
	if !h.Active() {
		return Handle{}
	}
	n, ok := ctx.Lookup(h.e)
	if !ok {
		panic("eventq: CloneHandle for an event from a different queue")
	}
	return Handle{e: n.(*Event), gen: h.gen}
}
