package workload

import (
	"fmt"
	"math"

	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// This file models open-loop production traffic: request streams whose
// rate is set by the outside world, not by the server's completion pace.
// Three canonical shapes cover the production envelope — a diurnal rate
// curve (the daily sine every user-facing service sees), an MMPP
// (Markov-modulated Poisson process, the standard burst model), and
// flash-crowd surges (linear ramp to a peak, linear decay back). All are
// time-inhomogeneous Poisson processes driven by one deterministic RNG
// stream, so the same seed yields the same arrival sequence across runs
// and forks.

// ArrivalProcess generates inter-arrival gaps for an open-loop stream.
// Next returns the gap from `now` to the next arrival; implementations
// may carry state (MMPP does), so Clone must deep-copy for forked runs.
type ArrivalProcess interface {
	Next(now simtime.Time, rng *sim.RNG) simtime.Duration
	Clone() ArrivalProcess
	String() string
}

// expGap draws an exponential gap at rateHz, floored at 1ns so an arrival
// process can never stall the event loop on a zero-length gap.
func expGap(rng *sim.RNG, rateHz float64) simtime.Duration {
	g := simtime.Duration(rng.ExpFloat64() / rateHz * 1e9)
	if g < 1 {
		g = 1
	}
	return g
}

// Poisson is a homogeneous Poisson arrival process at RateHz.
type Poisson struct {
	RateHz float64
}

// Next implements ArrivalProcess.
func (p Poisson) Next(_ simtime.Time, rng *sim.RNG) simtime.Duration {
	return expGap(rng, p.RateHz)
}

// Clone implements ArrivalProcess (stateless: the value is its own clone).
func (p Poisson) Clone() ArrivalProcess { return p }

// String implements ArrivalProcess.
func (p Poisson) String() string { return fmt.Sprintf("poisson(%.3g/s)", p.RateHz) }

// Diurnal is a nonhomogeneous Poisson process following a daily sine:
// λ(t) ramps from BaseHz (the nightly trough, at t = 0 when Phase = 0) up
// to PeakHz and back over each Day. Arrivals are drawn by thinning at
// PeakHz, which is exact for any bounded rate function. The long-run mean
// rate over whole days is (BaseHz + PeakHz) / 2.
type Diurnal struct {
	BaseHz float64
	PeakHz float64
	// Day is the curve's period (a production day, arbitrarily
	// compressible for simulation).
	Day simtime.Duration
	// Phase shifts the curve as a fraction of Day in [0, 1): 0 starts at
	// the trough, 0.5 at the peak.
	Phase float64
}

// rate evaluates λ(t).
func (d Diurnal) rate(t simtime.Time) float64 {
	x := float64(t)/float64(d.Day) + d.Phase
	// sin shifted so x = 0 is the trough and x = 0.5 the peak.
	s := (1 + math.Sin(2*math.Pi*(x-0.25))) / 2
	return d.BaseHz + (d.PeakHz-d.BaseHz)*s
}

// Next implements ArrivalProcess by thinning candidate arrivals at PeakHz.
func (d Diurnal) Next(now simtime.Time, rng *sim.RNG) simtime.Duration {
	t := now
	for {
		gap := expGap(rng, d.PeakHz)
		t = t.Add(gap)
		if rng.Float64()*d.PeakHz <= d.rate(t) {
			return t.Sub(now)
		}
	}
}

// Clone implements ArrivalProcess.
func (d Diurnal) Clone() ArrivalProcess { return d }

// String implements ArrivalProcess.
func (d Diurnal) String() string {
	return fmt.Sprintf("diurnal(%.3g..%.3g/s day=%v)", d.BaseHz, d.PeakHz, d.Day)
}

// MMPP is a Markov-modulated Poisson process: the rate switches between
// states cyclically, each state holding for an exponential sojourn. With
// exponential sojourns the competing-clocks construction below (redraw the
// remaining sojourn whenever consulted) is exact by memorylessness. The
// stationary mean rate is Σ λᵢ·sᵢ / Σ sᵢ over (RatesHz, SojournMean).
type MMPP struct {
	RatesHz     []float64
	SojournMean []simtime.Duration

	state    int
	switchAt simtime.Time
	init     bool
}

// NewMMPP builds a cyclic MMPP. Panics on mismatched or empty inputs so a
// misconfigured model fails at construction, not mid-run.
func NewMMPP(ratesHz []float64, sojournMean []simtime.Duration) *MMPP {
	if len(ratesHz) == 0 || len(ratesHz) != len(sojournMean) {
		panic(fmt.Sprintf("workload: MMPP needs matching non-empty rates/sojourns, got %d/%d",
			len(ratesHz), len(sojournMean)))
	}
	return &MMPP{RatesHz: ratesHz, SojournMean: sojournMean}
}

// sojourn draws state s's exponential holding time, floored at 1ns.
func (m *MMPP) sojourn(rng *sim.RNG, s int) simtime.Duration {
	d := simtime.Duration(rng.ExpFloat64() * float64(m.SojournMean[s]))
	if d < 1 {
		d = 1
	}
	return d
}

// Next implements ArrivalProcess: race the next arrival at the current
// state's rate against the state switch; on a switch, advance time and
// redraw in the new state.
func (m *MMPP) Next(now simtime.Time, rng *sim.RNG) simtime.Duration {
	t := now
	if !m.init {
		m.init = true
		m.switchAt = t.Add(m.sojourn(rng, m.state))
	}
	for {
		gap := expGap(rng, m.RatesHz[m.state])
		if cand := t.Add(gap); cand.Before(m.switchAt) || cand == m.switchAt {
			return cand.Sub(now)
		}
		// The modulating chain switches first: jump to the switch instant
		// and redraw from the new state (exact — exponentials are
		// memoryless, so discarding the losing clock is free).
		t = m.switchAt
		m.state = (m.state + 1) % len(m.RatesHz)
		m.switchAt = t.Add(m.sojourn(rng, m.state))
	}
}

// Clone implements ArrivalProcess.
func (m *MMPP) Clone() ArrivalProcess {
	n := *m
	n.RatesHz = append([]float64(nil), m.RatesHz...)
	n.SojournMean = append([]simtime.Duration(nil), m.SojournMean...)
	return &n
}

// String implements ArrivalProcess.
func (m *MMPP) String() string { return fmt.Sprintf("mmpp(%d states)", len(m.RatesHz)) }

// Surge is one flash-crowd event: the rate climbs linearly from 0 to
// PeakHz over Ramp starting at At, then decays linearly back over Decay.
// Its expected extra arrivals are PeakHz · (Ramp + Decay) / 2.
type Surge struct {
	At     simtime.Time
	PeakHz float64
	Ramp   simtime.Duration
	Decay  simtime.Duration
}

// FlashCrowd layers Surges on top of a BaseHz Poisson floor, thinned at
// the worst-case rate (base + sum of peaks, exact even for overlapping
// surges).
type FlashCrowd struct {
	BaseHz float64
	Surges []Surge
}

// rate evaluates λ(t) = base + Σ active surge contributions.
func (f FlashCrowd) rate(t simtime.Time) float64 {
	r := f.BaseHz
	for _, s := range f.Surges {
		dt := t.Sub(s.At)
		switch {
		case dt < 0 || dt >= s.Ramp+s.Decay:
		case dt < s.Ramp:
			r += s.PeakHz * float64(dt) / float64(s.Ramp)
		default:
			r += s.PeakHz * float64(s.Ramp+s.Decay-dt) / float64(s.Decay)
		}
	}
	return r
}

// maxRate bounds λ for thinning.
func (f FlashCrowd) maxRate() float64 {
	r := f.BaseHz
	for _, s := range f.Surges {
		r += s.PeakHz
	}
	return r
}

// Next implements ArrivalProcess by thinning at the worst-case rate.
func (f FlashCrowd) Next(now simtime.Time, rng *sim.RNG) simtime.Duration {
	limit := f.maxRate()
	t := now
	for {
		gap := expGap(rng, limit)
		t = t.Add(gap)
		if rng.Float64()*limit <= f.rate(t) {
			return t.Sub(now)
		}
	}
}

// Clone implements ArrivalProcess.
func (f FlashCrowd) Clone() ArrivalProcess {
	n := f
	n.Surges = append([]Surge(nil), f.Surges...)
	return n
}

// String implements ArrivalProcess.
func (f FlashCrowd) String() string {
	return fmt.Sprintf("flash(%.3g/s base, %d surges)", f.BaseHz, len(f.Surges))
}

// OpenLoopClient drives a sporadic task with an ArrivalProcess: requests
// arrive on the process's schedule regardless of how the server is doing
// (open loop, like production traffic — a slow server builds a queue, it
// does not slow the clients). Sporadic releases that would violate the
// task's declared minimum inter-arrival are counted as Throttled, making
// burst-past-declared-rate pressure visible instead of silent.
type OpenLoopClient struct {
	Task  *task.Task
	Guest *guest.OS

	// Arrivals is the open-loop arrival process.
	Arrivals ArrivalProcess
	// NetworkDelay separates the client-side send from the job release.
	NetworkDelay simtime.Duration
	// Service draws each request's CPU demand; nil uses the declared slice.
	Service dist.Duration

	// Latency records response times (release → completion).
	Latency metrics.LatencyRecorder
	// Offered counts requests sent; Throttled those suppressed by the
	// sporadic minimum inter-arrival constraint.
	Offered   int
	Throttled int

	sim *sim.Simulator
	rng *sim.RNG
	id  int32
}

// NewOpenLoopClient registers a sporadic task on g and wires an open-loop
// client driving it.
func NewOpenLoopClient(g *guest.OS, id int, name string, p task.Params, proc ArrivalProcess) (*OpenLoopClient, error) {
	t := task.New(id, name, task.Sporadic, p)
	if err := g.Register(t); err != nil {
		return nil, err
	}
	return NewOpenLoopClientFor(g, t, proc), nil
}

// NewOpenLoopClientFor wires an open-loop client onto an already-registered
// sporadic task.
func NewOpenLoopClientFor(g *guest.OS, t *task.Task, proc ArrivalProcess) *OpenLoopClient {
	c := &OpenLoopClient{
		Task:         t,
		Guest:        g,
		Arrivals:     proc,
		NetworkDelay: DefaultNetworkDelay(),
		sim:          g.VM().Host().Sim,
	}
	c.id = c.sim.RegisterHandler(c)
	t.OnJobDone = c.jobDone
	return c
}

func (c *OpenLoopClient) jobDone(j *task.Job) {
	c.Latency.Add(j.Finish.Sub(j.Release))
}

// Start schedules the request stream beginning at the given instant.
func (c *OpenLoopClient) Start(at simtime.Time) {
	c.rng = c.sim.RNG().Split()
	c.sim.PostAt(at, sim.Payload{Handler: c.id, Kind: evOpenLoopFire})
}

// HandleSimEvent implements sim.Handler.
func (c *OpenLoopClient) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evOpenLoopFire:
		c.fire(now)
	case evOpenLoopRelease:
		if c.Task.EarliestNextRelease() <= now {
			c.Guest.ReleaseJob(c.Task, simtime.Duration(ev.Arg0))
		} else {
			c.Throttled++
		}
	default:
		panic(fmt.Sprintf("workload: unknown open-loop event kind %d", ev.Kind))
	}
}

func (c *OpenLoopClient) fire(now simtime.Time) {
	c.Offered++
	var demand int64
	if c.Service != nil {
		demand = int64(c.Service.Sample(c.rng))
	}
	c.sim.PostAt(now.Add(c.NetworkDelay),
		sim.Payload{Handler: c.id, Kind: evOpenLoopRelease, Arg0: demand})
	c.sim.PostAt(now.Add(c.Arrivals.Next(now, c.rng)),
		sim.Payload{Handler: c.id, Kind: evOpenLoopFire})
}
