package main

import (
	"fmt"
	"time"

	"rtvirt/internal/cluster"
	"rtvirt/internal/dist"
	"rtvirt/internal/experiments"
	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

// arm is one simulated arm of a pass: an independent simulation whose
// full result struct the output check digests.
type arm struct {
	Name  string
	Value any   // experiments.Table6Row, experiments.Figure5Row or pdesResult
	Err   error // a panic while the arm ran
}

// pass is one full execution of a workload.
type pass struct {
	arms []arm
	// build is the wall time before the first simulated event (PDES only:
	// experiments.Table6 and Figure5a build inside one call, so their
	// set-up is timed by a near-zero-length pass instead).
	build time.Duration
	// run is the pass's host time: the whole experiments call, or the
	// PDES Run+Finish phase.
	run time.Duration
	// finish, when set, reads the arms out of the finished world. It is
	// part of the check, not of the pass's cost; extract is its wall time.
	finish  func() []arm
	extract time.Duration
}

// workload is one named benchmark input.
type workload struct {
	name  string
	arms  int // simulated arms per pass
	cores int // goroutines a pass keeps busy
	// setupBatch zero-length passes make one set-up sample, so that a
	// sample lasts tens of milliseconds even where one build takes one.
	setupBatch int
	setup      func(seed uint64)
	run        func(seed uint64, groups int) pass
	// invariants checks one pass's arms against properties that hold at
	// every seed; it returns one slot per arm, nil where the arm passed.
	invariants func(arms []arm) []error
}

var workloads = []*workload{
	{name: "table6-scale", arms: 4, cores: 1, setupBatch: 1,
		setup: func(seed uint64) { table6(seed, simtime.Microsecond) },
		run: func(seed uint64, _ int) pass {
			start := time.Now()
			arms := table6(seed, table6Duration)
			return pass{arms: arms, run: time.Since(start)}
		},
		invariants: table6Invariants},
	{name: "fig5a-contention", arms: 4, cores: 1, setupBatch: 200,
		setup: func(seed uint64) { figure5a(seed, simtime.Microsecond) },
		run: func(seed uint64, _ int) pass {
			start := time.Now()
			arms := figure5a(seed, fig5aDuration)
			return pass{arms: arms, run: time.Since(start)}
		},
		invariants: fig5aInvariants},
	{name: "pdes64-cluster", arms: 1, cores: pdesGroups, setupBatch: 40,
		setup: func(seed uint64) {
			c, _ := buildPDES(seed)
			c.Start()
		},
		run:        pdesPass,
		invariants: pdesInvariants},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Simulated lengths. Table 6 runs the paper's 30 s; Figure 5a runs long
// enough that request churn, not set-up, dominates a pass; the PDES world
// is the 2 s BENCH_7 configuration.
var (
	table6Duration = experiments.DefaultTable6Config().Duration
	fig5aDuration  = 600 * simtime.Second
	pdesDuration   = 2 * simtime.Second
)

// guard runs fn and turns a panic into an error, so one broken arm
// counts as failed instead of ending the benchmark.
func guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// table6 runs both Table 6 scenarios, each under RTVirt and RT-Xen, one
// after the other on the calling goroutine, with calibrated costs so the
// result depends on the seed.
func table6(seed uint64, d simtime.Duration) []arm {
	costs := hv.CalibratedCosts()
	cfg := experiments.DefaultTable6Config()
	cfg.Seed = seed
	cfg.Duration = d
	cfg.Parallel = 1
	cfg.Costs = &costs
	var arms []arm
	for _, sc := range []experiments.Table6Scenario{experiments.MultiRTAVMs, experiments.SingleRTAVMs} {
		var rows []experiments.Table6Row
		err := guard(func() { rows = experiments.Table6(sc, cfg) })
		for i, fw := range []string{"RTVirt", "RT-Xen"} {
			a := arm{Name: fmt.Sprintf("%s/%s", sc, fw), Err: err}
			if err == nil {
				a.Value = rows[i]
			}
			arms = append(arms, a)
		}
	}
	return arms
}

// figure5a runs the four Figure 5a arms one after the other (the runner
// default is one worker).
func figure5a(seed uint64, d simtime.Duration) []arm {
	cfg := experiments.DefaultFigure5Config()
	cfg.Seed = seed
	cfg.Duration = d
	var rows []experiments.Figure5Row
	err := guard(func() { rows = experiments.Figure5a(cfg) })
	var arms []arm
	for i, a := range experiments.Arms() {
		x := arm{Name: string(a), Err: err}
		if err == nil {
			x.Value = rows[i]
		}
		arms = append(arms, x)
	}
	return arms
}

// pdesResult is what the check reads from a finished sharded world: the
// rendered digest and the public counters it must agree with.
type pdesResult struct {
	Digest  string
	Events  uint64
	Windows uint64
	Sent    []int // per remote client, in AddRemoteClient order
	Agents  []cluster.AgentStats
}

// The BENCH_7 world: 64 hosts in racks of 8, two cache VMs per host, each
// driven by remote clients on the next two hosts, and eight planned
// migrations.
const (
	pdesHosts      = 64
	pdesRackSize   = 8
	pdesGroups     = 2
	pdesVMsPerHost = 2
	// pdesClientsPerVM clients per VM, on the next hosts up: client i
	// sends to host i / (pdesVMsPerHost × pdesClientsPerVM).
	pdesClientsPerVM = 2
	// pdesMigrations: the first VM of each of hosts 0..7 moves one host
	// up (pdesMigrationTarget), one every 100 ms.
	pdesMigrations = 8
)

func pdesMigrationTarget(src int) int { return (src + 1) % pdesHosts }

func pdesLinkDelay(src, dst int) simtime.Duration {
	switch d := src/pdesRackSize - dst/pdesRackSize; {
	case d == 0:
		return simtime.Micros(120)
	case d == 1 || d == -1:
		return simtime.Micros(180)
	default:
		return simtime.Micros(260)
	}
}

// buildPDES places the VMs, clients and migrations; it does not Start.
func buildPDES(seed uint64) (*cluster.Sharded, []*cluster.RemoteClient) {
	cfg := cluster.DefaultShardedConfig()
	cfg.Hosts = pdesHosts
	cfg.PCPUs = 4
	cfg.Seed = seed
	cfg.LinkDelay = pdesLinkDelay
	c := cluster.NewSharded(cfg)
	var clients []*cluster.RemoteClient
	for h := 0; h < pdesHosts; h++ {
		for v := 0; v < pdesVMsPerHost; v++ {
			spec := cluster.VMSpec{
				Name:  fmt.Sprintf("cache%d-%d", h, v),
				VCPUs: 2,
				Tasks: []cluster.TaskSpec{
					{Name: "memc", Kind: task.Sporadic,
						Params: task.Params{Slice: simtime.Micros(60), Period: simtime.Micros(200)}},
					{Name: "rt", Kind: task.Periodic,
						Params: task.Params{Slice: simtime.Micros(300), Period: simtime.Millis(5)},
						Phase:  simtime.Micros(int64(37 * (h + v)))},
					{Name: "bg", Kind: task.Background},
				},
			}
			d, err := c.Deploy(h, spec)
			if err != nil {
				panic(fmt.Sprintf("deploy %s: %v", spec.Name, err))
			}
			for k := 1; k <= pdesClientsPerVM; k++ {
				src := (h + k) % pdesHosts
				cl, err := c.AddRemoteClient(src, d, 0, pdesLinkDelay(src, h),
					dist.Uniform{Lo: pdesMinGap, Hi: simtime.Micros(500)},
					dist.Uniform{Lo: simtime.Micros(20), Hi: simtime.Micros(80)}, 0)
				if err != nil {
					panic(fmt.Sprintf("client for %s: %v", spec.Name, err))
				}
				clients = append(clients, cl)
			}
		}
	}
	for k := 0; k < pdesMigrations; k++ {
		d, _ := c.Lookup(fmt.Sprintf("cache%d-0", k))
		at := simtime.Time(0).Add(simtime.Millis(int64(100 * (k + 1))))
		if err := c.PlanMigration(at, d, pdesMigrationTarget(k)); err != nil {
			panic(fmt.Sprintf("migration %d: %v", k, err))
		}
	}
	return c, clients
}

// pdesMinGap is the shortest gap between two requests of one client.
const pdesMinGap = 150 * simtime.Microsecond

func pdesPass(seed uint64, groups int) pass {
	var p pass
	var c *cluster.Sharded
	var clients []*cluster.RemoteClient
	err := guard(func() {
		t0 := time.Now()
		c, clients = buildPDES(seed)
		c.Start()
		t1 := time.Now()
		c.Run(pdesDuration, groups)
		c.Finish()
		p.build, p.run = t1.Sub(t0), time.Since(t1)
	})
	p.finish = func() []arm {
		a := arm{Name: "cluster", Err: err}
		if err == nil {
			a.Err = guard(func() { a.Value = readPDES(c, clients) })
		}
		return []arm{a}
	}
	return p
}

func readPDES(c *cluster.Sharded, clients []*cluster.RemoteClient) pdesResult {
	r := pdesResult{Digest: c.DigestString(), Events: c.Set.EventsFired(), Windows: c.Set.Windows()}
	for _, cl := range clients {
		r.Sent = append(r.Sent, cl.Sent())
	}
	for _, h := range c.Hosts {
		r.Agents = append(r.Agents, h.Agent())
	}
	return r
}

// counters reads the public work counts of one pass for the traced run.
func counters(p pass) map[string]float64 {
	m := map[string]float64{}
	add := func(k string, v float64) { m[k] += v }
	for _, a := range p.arms {
		switch v := a.Value.(type) {
		case experiments.Table6Row:
			ev := v.Events
			add("hv.dispatches", float64(ev[trace.Dispatch]))
			add("hv.migrations", float64(ev[trace.Migrate]))
			add("hv.hypercalls", float64(ev.Hypercalls()))
			add("hv.replenishes", float64(ev[trace.Replenish]))
			add("guest.switches", float64(ev[trace.GuestSwitch]))
			add("guest.jobs", float64(ev[trace.JobDone]+ev[trace.JobMiss]))
			add("guest.rejects", float64(ev[trace.Reject]))
		case experiments.Figure5Row:
			add("workload.requests", float64(v.Requests))
		case pdesResult:
			add("sim.events", float64(v.Events))
			add("sim.windows", float64(v.Windows))
			for _, s := range v.Sent {
				add("workload.requests", float64(s))
			}
			for _, st := range v.Agents {
				add("cluster.delivered", float64(st.Delivered))
				add("cluster.forwarded", float64(st.Forwarded))
				add("cluster.dropped", float64(st.Dropped))
				add("cluster.throttled", float64(st.Throttled))
			}
		}
	}
	if n := m["hv.dispatches"]; n > 0 {
		m["hv.host_ns_per_dispatch"] = float64(p.run.Nanoseconds()) / n
	}
	if n := m["sim.events"]; n > 0 {
		m["sim.host_ns_per_event"] = float64(p.run.Nanoseconds()) / n
		m["sim.events_per_window"] = n / m["sim.windows"]
	}
	return m
}
