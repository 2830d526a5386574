// Package sim provides the discrete-event simulation kernel: a clock, a
// pending-event queue, and a deterministic random number source.
//
// All of the virtualized-host machinery (internal/hv, internal/guest, the
// schedulers, the workloads) runs on top of a single Simulator. The kernel
// is strictly single-threaded: callbacks run one at a time in global time
// order, so no package above this one needs locks.
package sim

import (
	"fmt"

	"rtvirt/internal/eventq"
	"rtvirt/internal/simtime"
)

// Simulator is a discrete-event simulation engine. Create one with New.
type Simulator struct {
	now      simtime.Time
	q        eventq.Queue
	rng      *RNG
	seed     uint64
	fired    uint64
	inStep   bool
	handlers []Handler
}

// DefaultBackend names the simulator's only event queue, the intrusive
// 4-ary heap of internal/eventq. It selects nothing; it exists so the
// benchmark header can keep recording which queue a run used.
const DefaultBackend = "heap"

// New returns a Simulator whose clock starts at 0 and whose random source
// is seeded with seed (same seed ⇒ identical run).
func New(seed uint64) *Simulator {
	s := &Simulator{rng: NewRNG(seed), seed: seed}
	s.q.Dispatch = s.dispatch
	return s
}

// Now reports the current simulated time.
func (s *Simulator) Now() simtime.Time { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Simulator) RNG() *RNG { return s.rng }

// Seed reports the seed this simulator was created with. Forks inherit it.
func (s *Simulator) Seed() uint64 { return s.seed }

// DerivedRNG returns a fresh generator whose stream is a pure function of
// (seed, tag) — it never consumes a draw from the main stream, so adding a
// derived stream cannot perturb existing event sequences. Layers that need
// their own substream (e.g. the hypervisor's platform-cost sampler) derive
// one from a stable tag such as their handler ID; two layers with distinct
// tags get decorrelated streams.
func (s *Simulator) DerivedRNG(tag uint64) *RNG {
	z := s.seed + (tag+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

// EventsFired reports how many events have executed so far.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending reports the number of events waiting to run.
func (s *Simulator) Pending() int { return s.q.Len() }

// At schedules fn to run at the absolute instant at. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (s *Simulator) At(at simtime.Time, fn func(now simtime.Time)) eventq.Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	return s.q.Schedule(at, fn)
}

// After schedules fn to run d from now.
func (s *Simulator) After(d simtime.Duration, fn func(now simtime.Time)) eventq.Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event %v in the past", d))
	}
	return s.At(s.now.Add(d), fn)
}

// PostAt schedules a typed event at the absolute instant at, delivered to
// the registered handler named by p.Handler. Typed events order exactly
// like At calls made at the same point (shared seq counter), and — unlike
// closures — survive Fork. Scheduling in the past panics.
func (s *Simulator) PostAt(at simtime.Time, p Payload) eventq.Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	if p.Handler < 0 || int(p.Handler) >= len(s.handlers) {
		panic(fmt.Sprintf("sim: PostAt with unregistered handler %d", p.Handler))
	}
	return s.q.SchedulePayload(at, p)
}

// PostAfter schedules a typed event d from now.
func (s *Simulator) PostAfter(d simtime.Duration, p Payload) eventq.Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event %v in the past", d))
	}
	return s.PostAt(s.now.Add(d), p)
}

// Cancel removes a pending event. Inert on zero and already-fired handles.
func (s *Simulator) Cancel(h eventq.Handle) { s.q.Cancel(h) }

// Reschedule moves a still-pending event to the absolute instant at,
// keeping its callback, and returns the replacement handle (the one passed
// in goes inert). It is the in-place equivalent of Cancel followed by At
// with the same callback — including FIFO ordering among same-instant
// events — but leaves no tombstone in the queue and performs a single heap
// sift. Rescheduling into the past or an inactive handle panics; callers
// that may hold a fired handle check Active first.
func (s *Simulator) Reschedule(h eventq.Handle, at simtime.Time) eventq.Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", at, s.now))
	}
	return s.q.Reschedule(h, at)
}

// Step fires the single earliest pending event, advancing the clock to its
// scheduled time. It reports false when no events remain.
func (s *Simulator) Step() bool {
	next := s.q.PeekTime()
	if next == simtime.Never {
		return false
	}
	s.fireAt(next)
	return true
}

// fireAt fires the earliest pending event, already known to sit at next,
// advancing the clock. Splitting this from Step lets RunUntil pay exactly
// one PeekTime per event instead of peeking once for the bound check and
// again inside Step.
func (s *Simulator) fireAt(next simtime.Time) {
	if next < s.now {
		panic("sim: event queue went backwards")
	}
	s.now = next
	s.inStep = true
	s.q.Fire()
	s.inStep = false
	s.fired++
}

// RunUntil fires events in order until the clock would pass end, leaving
// the clock at exactly end. Events scheduled at exactly end do run. Each
// event costs a single queue peek.
func (s *Simulator) RunUntil(end simtime.Time) {
	for {
		next := s.q.PeekTime()
		if next == simtime.Never || next > end {
			break
		}
		s.fireAt(next)
	}
	if end > s.now && end != simtime.Never {
		s.now = end
	}
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d simtime.Duration) { s.RunUntil(s.now.Add(d)) }

// Drain fires every remaining event. maxEvents bounds runaway simulations;
// it panics if exceeded.
func (s *Simulator) Drain(maxEvents uint64) {
	start := s.fired
	for s.Step() {
		if s.fired-start > maxEvents {
			panic("sim: Drain exceeded event budget (runaway simulation?)")
		}
	}
}
