package cluster

import (
	"errors"
	"fmt"
	"strings"

	"rtvirt/internal/core"
	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// This file is the sharded (conservative-PDES) counterpart of Cluster: a
// Sharded cluster gives every host its own sim.Simulator — its own clock,
// event queue, and RNG stream — and advances all of them concurrently in
// sim.ShardSet lookahead windows. All cross-host interaction (client→
// server request traffic, live-migration handoff, post-migration request
// forwarding) travels through the shard mailbox with at least the
// lookahead of delay, which is what makes the windows safe.
//
// Ownership discipline (what makes the parallel run race-free AND
// grouping-invariant): during a window a host's handlers may touch only
// state owned by that host. A deployment is owned by the host it resides
// on; ownership transfers through the migration protocol, whose two sides
// run at least one lookahead apart and are therefore separated by a
// barrier. Agents decide residency from their own local maps — never by
// peeking at another host's state mid-window. The only cross-host reads
// are immutable topology (shard pointers, agent handler IDs) fixed before
// Start.

// ShardedConfig describes a sharded cluster run.
type ShardedConfig struct {
	// Hosts is the number of hosts (= shards); PCPUs their size.
	Hosts int
	PCPUs int
	// Seed fixes the whole run. Host i's simulator is seeded with
	// splitmix64(Seed, i), so hosts share no stream structure.
	Seed uint64
	// System is the per-host configuration template, with the same
	// contract as Config.System: topology knobs (PCPUs, Seed, SharedSim)
	// stay blank — the cluster owns them.
	System core.Config
	// Lookahead is the conservative-window width: the minimum cross-host
	// latency. Zero selects workload.DefaultNetworkDelay() (19µs, the
	// paper's measured p99.9 network delay). Every remote client's delay
	// and the migration downtime must be ≥ Lookahead.
	Lookahead simtime.Duration
	// MigrationDowntime / MigrationPerBW form the stop-and-copy blackout
	// model, as in Config.
	MigrationDowntime simtime.Duration
	MigrationPerBW    simtime.Duration
	// LinkDelay optionally models per-pair network latency: forwarded
	// requests chase a migrated VM at LinkDelay(src, dst) instead of the
	// global Lookahead floor, and the declared migration-pair edges widen
	// to match, so per-edge windows stretch to the topology's real link
	// latencies. Nil charges every forwarded hop exactly Lookahead. The
	// function must be pure (same inputs, same answer — Fork shares it)
	// and must never return less than Lookahead; the first undershooting
	// hop panics.
	LinkDelay func(src, dst int) simtime.Duration
	// GlobalWindows disables per-edge topology declaration: the shard set
	// windows on the single global Lookahead for every pair, as before
	// per-edge synchronization existed. Results are identical either way
	// (modulo the window count); the knob exists for A/B comparison and
	// as an escape hatch.
	GlobalWindows bool
}

// DefaultShardedConfig returns a 4-host × 4-CPU RTVirt sharded cluster
// with the sequential cluster's 50ms+20ms/CPU migration model and the
// 19µs network-delay lookahead.
func DefaultShardedConfig() ShardedConfig {
	sys := core.DefaultConfig(core.RTVirt)
	sys.PCPUs = 0
	sys.Seed = 0
	return ShardedConfig{
		Hosts:             4,
		PCPUs:             4,
		Seed:              1,
		System:            sys,
		Lookahead:         workload.DefaultNetworkDelay(),
		MigrationDowntime: simtime.Millis(50),
		MigrationPerBW:    simtime.Millis(20),
	}
}

// Validate reports whether the configuration is coherent.
func (cfg ShardedConfig) Validate() error {
	if cfg.Hosts <= 0 {
		return errors.New("cluster: sharded config needs at least one host")
	}
	if cfg.Lookahead <= 0 {
		return errors.New("cluster: sharded config needs a positive lookahead")
	}
	if cfg.MigrationDowntime < cfg.Lookahead {
		return fmt.Errorf("cluster: migration downtime %v below lookahead %v — the handoff would outrun the conservative window",
			cfg.MigrationDowntime, cfg.Lookahead)
	}
	if cfg.System.SharedSim != nil {
		return errors.New("cluster: sharded Config.System.SharedSim must be nil; every host gets its own simulator")
	}
	if cfg.System.PCPUs != 0 && cfg.System.PCPUs != cfg.PCPUs {
		return fmt.Errorf("cluster: sharded Config.System.PCPUs (%d) conflicts with Config.PCPUs (%d); leave the template's zero",
			cfg.System.PCPUs, cfg.PCPUs)
	}
	if cfg.System.Seed != 0 {
		return errors.New("cluster: sharded Config.System.Seed must be zero; per-host seeds derive from Config.Seed")
	}
	return nil
}

// splitSeed derives host k's simulator seed from the run seed (splitmix64
// finalizer — well-mixed, never zero).
func splitSeed(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Typed kernel-event kinds dispatched to each host's agent.
const (
	// evAgentReq delivers one remote request: Owner is the deployment ID,
	// Arg0 the sampled CPU demand in ns (0 = declared slice), Arg1 the
	// task index within the deployment.
	evAgentReq uint16 = iota
	// evAgentMigOut starts a live migration on the source host: Owner the
	// deployment, Arg0 the target host index.
	evAgentMigOut
	// evAgentMigIn completes it on the target: Owner the deployment, Arg0
	// the downtime charged.
	evAgentMigIn
)

// RemoteClient event kinds.
const (
	// evRemoteFire sends the next request toward the deployment's home
	// host and schedules the following fire.
	evRemoteFire uint16 = iota + 16
)

// AgentStats counts one host agent's traffic outcomes. All fields are
// written only by the owning host, so they are exact and deterministic.
type AgentStats struct {
	// Delivered requests released into the resident guest.
	Delivered uint64
	// Forwarded requests that arrived after the VM migrated away and were
	// re-sent to its new host (one extra network hop each).
	Forwarded uint64
	// Dropped requests that arrived during a blackout or found no
	// forwarding address — connection-refused, made visible.
	Dropped uint64
	// Throttled sporadic releases suppressed by the minimum inter-arrival
	// constraint.
	Throttled uint64
	// SkippedMigrations counts planned migrations that fired after the VM
	// had already left (or toward its current host) and were ignored.
	SkippedMigrations uint64
	// FailedDeploys counts migrations whose target admission failed; the
	// VM stays dark.
	FailedDeploys uint64
}

// hostAgent is the per-host protocol endpoint: it receives mailbox events
// addressed to its host and acts strictly on host-local state.
type hostAgent struct {
	c    *Sharded
	host int
	id   int32

	// resident marks deployments currently served by this host.
	resident map[int32]struct{}
	// fwd maps a departed deployment to the host it migrated to, so late
	// requests chase it with one extra hop per move.
	fwd map[int32]int32

	Stats AgentStats
}

// ShardHost is one member of a sharded cluster.
type ShardHost struct {
	Name  string
	Shard *sim.Shard
	Sys   *core.System

	agent *hostAgent
}

// Agent exposes the host's traffic statistics.
func (h *ShardHost) Agent() AgentStats { return h.agent.Stats }

// ShardedDeployment is a VM placed on a sharded cluster. Between runs all
// fields are stable to read; during a window only the resident host
// touches them.
type ShardedDeployment struct {
	Spec VMSpec

	id      int32
	hostIdx int
	guest   *guest.OS
	tasks   []*task.Task
	// lat[i] records task i's response times (release → completion),
	// surviving migrations with the deployment.
	lat []metrics.LatencyRecorder
	// ctrl[i] is task i's adaptive controller on the resident host (nil
	// for tasks without an Adaptive spec, and nil as a whole during a
	// blackout — controllers are torn down with the guest and rebuilt
	// fresh on the target).
	ctrl []*guest.AdaptiveController

	Migrations    int
	BlackoutTotal simtime.Duration
	migrating     bool
}

// HostIndex reports the host the deployment resides on (the migration
// target from the moment the stop-and-copy begins).
func (d *ShardedDeployment) HostIndex() int { return d.hostIdx }

// Migrating reports whether a stop-and-copy blackout is in flight.
func (d *ShardedDeployment) Migrating() bool { return d.migrating }

// Guest exposes the current guest OS (nil during a blackout).
func (d *ShardedDeployment) Guest() *guest.OS { return d.guest }

// Tasks returns the deployment's tasks.
func (d *ShardedDeployment) Tasks() []*task.Task { return d.tasks }

// Latency returns task i's response-time recorder.
func (d *ShardedDeployment) Latency(i int) *metrics.LatencyRecorder { return &d.lat[i] }

// RemoteClient drives a deployment's task from another host, like the
// paper's TCP clients: inter-arrival times and per-request demand are
// sampled client-side from the client host's RNG, and each request
// crosses the network (≥ lookahead) through the shard mailbox to the
// deployment's build-time home host.
type RemoteClient struct {
	Host    int // client host index
	TaskIdx int
	// Delay is the client→server network latency (≥ the cluster
	// lookahead).
	Delay simtime.Duration
	// Inter is the inter-arrival distribution; Service the per-request
	// CPU demand (nil = the task's declared slice).
	Inter   dist.Duration
	Service dist.Duration
	// Proc, when set before Start, replaces Inter with a time-varying
	// open-loop arrival process (diurnal/MMPP/flash-crowd production
	// traffic). Inter stays required as the declared fallback.
	Proc workload.ArrivalProcess
	// Requests bounds the stream (0 = unbounded).
	Requests int

	c        *Sharded
	dep      *ShardedDeployment
	homeHost int32
	id       int32
	sent     int
	rng      *sim.RNG
}

// Sent reports the number of requests issued so far.
func (cl *RemoteClient) Sent() int { return cl.sent }

// Sharded is a cluster of per-host logical processes under conservative
// windowed synchronization. Build it with NewSharded, place VMs with
// Deploy, attach traffic with AddRemoteClient, optionally PlanMigration,
// then Start and Run.
type Sharded struct {
	Cfg   ShardedConfig
	Set   *sim.ShardSet
	Hosts []*ShardHost

	deps       []*ShardedDeployment
	byName     map[string]*ShardedDeployment
	clients    []*RemoteClient
	plans      []migPlan
	nextTaskID int
	started    bool
}

// migPlan records one planned migration's endpoints for topology
// declaration: src is the VM's host when the plan was laid (where the
// stop-and-copy event sits), dst the target.
type migPlan struct {
	src, dst int
}

// NewSharded builds the hosts, one simulator each. It panics on an
// incoherent configuration, mirroring New.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Lookahead == 0 {
		cfg.Lookahead = workload.DefaultNetworkDelay()
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Sharded{Cfg: cfg, Set: sim.NewShardSet(cfg.Lookahead),
		byName: map[string]*ShardedDeployment{}}
	for i := 0; i < cfg.Hosts; i++ {
		sh := c.Set.NewShard(splitSeed(cfg.Seed, uint64(i)))
		sysCfg := cfg.System
		sysCfg.PCPUs = cfg.PCPUs
		sysCfg.Seed = 0 // unused: the shard's simulator already exists
		sysCfg.SharedSim = sh.Sim()
		h := &ShardHost{
			Name:  fmt.Sprintf("host%d", i),
			Shard: sh,
			Sys:   core.NewSystem(sysCfg),
			agent: &hostAgent{c: c, host: i,
				resident: map[int32]struct{}{}, fwd: map[int32]int32{}},
		}
		h.agent.id = sh.Sim().RegisterHandler(h.agent)
		c.Hosts = append(c.Hosts, h)
	}
	return c
}

// Deployments returns the placed VMs in placement order.
func (c *Sharded) Deployments() []*ShardedDeployment { return c.deps }

// Lookup returns a deployment by VM name.
func (c *Sharded) Lookup(name string) (*ShardedDeployment, bool) {
	d, ok := c.byName[name]
	return d, ok
}

// Deploy admits a VM onto an explicit host (placement policy is the
// caller's business in a sharded run — it is decided before Start, when
// global state is still cheap to read).
func (c *Sharded) Deploy(host int, spec VMSpec) (*ShardedDeployment, error) {
	if c.started {
		return nil, errors.New("cluster: Deploy after Start")
	}
	if host < 0 || host >= len(c.Hosts) {
		return nil, fmt.Errorf("cluster: host %d out of range", host)
	}
	if _, dup := c.byName[spec.Name]; dup {
		return nil, fmt.Errorf("cluster: VM %q already placed", spec.Name)
	}
	d := &ShardedDeployment{Spec: spec, id: int32(len(c.deps)), hostIdx: host}
	for _, ts := range spec.Tasks {
		var t *task.Task
		if ts.Kind == task.Background {
			t = task.NewBackground(c.nextTaskID, ts.Name)
		} else {
			t = task.New(c.nextTaskID, ts.Name, ts.Kind, ts.Params)
		}
		c.nextTaskID++
		d.tasks = append(d.tasks, t)
	}
	d.lat = make([]metrics.LatencyRecorder, len(d.tasks))
	if err := c.deployGuest(d, host); err != nil {
		return nil, err
	}
	c.Hosts[host].agent.resident[d.id] = struct{}{}
	c.deps = append(c.deps, d)
	c.byName[spec.Name] = d
	return d, nil
}

// deployGuest creates the guest on the host and registers the
// deployment's tasks, wiring each task's completion callback to the
// deployment-owned latency recorder. Reused task objects keep their
// deadline statistics across migrations, exactly like Cluster.deploy.
func (c *Sharded) deployGuest(d *ShardedDeployment, host int) error {
	vcpus := d.Spec.VCPUs
	if vcpus <= 0 {
		vcpus = 1
	}
	g, err := c.Hosts[host].Sys.NewGuest(d.Spec.Name, vcpus)
	if err != nil {
		return err
	}
	for i, t := range d.tasks {
		if err := g.Register(t); err != nil {
			for _, prev := range d.tasks[:i] {
				_ = g.Unregister(prev)
			}
			c.Hosts[host].Sys.Host.RemoveVM(g.VM())
			return fmt.Errorf("cluster: admitting %q on host%d: %w", t.Name, host, err)
		}
	}
	d.guest = g
	d.hostIdx = host
	d.wireStats()
	d.ctrl = nil
	for i, ts := range d.Spec.Tasks {
		if ts.Adaptive == nil {
			continue
		}
		ct, err := guest.NewAdaptiveController(g, d.tasks[i], *ts.Adaptive)
		if err != nil {
			for _, t := range d.tasks {
				_ = g.Unregister(t)
			}
			c.Hosts[host].Sys.Host.RemoveVM(g.VM())
			d.guest = nil
			return fmt.Errorf("cluster: controller for %q on host%d: %w", ts.Name, host, err)
		}
		if d.ctrl == nil {
			d.ctrl = make([]*guest.AdaptiveController, len(d.tasks))
		}
		d.ctrl[i] = ct
	}
	return nil
}

// Controller returns task i's adaptive controller on the resident host
// (nil without an Adaptive spec or during a blackout).
func (d *ShardedDeployment) Controller(i int) *guest.AdaptiveController {
	if d.ctrl == nil {
		return nil
	}
	return d.ctrl[i]
}

// wireStats points every task's OnJobDone at the deployment's recorders.
// Called after each deploy and after each fork (task.Clone and guest
// teardown both drop the callbacks).
func (d *ShardedDeployment) wireStats() {
	for i := range d.tasks {
		rec := &d.lat[i]
		d.tasks[i].OnJobDone = func(j *task.Job) {
			rec.Add(j.Finish.Sub(j.Release))
		}
	}
}

// startTasks begins the deployment's periodic releases (phase-shifted
// from now) and releases one effectively infinite job per background
// task.
func (c *Sharded) startTasks(d *ShardedDeployment, now simtime.Time) {
	for i, ts := range d.Spec.Tasks {
		switch ts.Kind {
		case task.Periodic:
			d.guest.StartPeriodic(d.tasks[i], now.Add(ts.Phase))
		case task.Background:
			d.guest.ReleaseJob(d.tasks[i], simtime.Duration(1<<60))
		}
	}
	for _, ct := range d.ctrl {
		if ct != nil {
			ct.Start(now)
		}
	}
}

// AddRemoteClient attaches a request stream for d.tasks[taskIdx], driven
// from clientHost. The client's network delay must be ≥ the lookahead and
// the client must sit on a different host than the VM's home.
func (c *Sharded) AddRemoteClient(clientHost int, d *ShardedDeployment, taskIdx int,
	delay simtime.Duration, inter dist.Duration, service dist.Duration, requests int) (*RemoteClient, error) {
	if c.started {
		return nil, errors.New("cluster: AddRemoteClient after Start")
	}
	if clientHost < 0 || clientHost >= len(c.Hosts) {
		return nil, fmt.Errorf("cluster: client host %d out of range", clientHost)
	}
	if taskIdx < 0 || taskIdx >= len(d.tasks) {
		return nil, fmt.Errorf("cluster: task index %d out of range for VM %q", taskIdx, d.Spec.Name)
	}
	if delay < c.Cfg.Lookahead {
		return nil, fmt.Errorf("cluster: client delay %v below lookahead %v", delay, c.Cfg.Lookahead)
	}
	if clientHost == d.hostIdx {
		return nil, fmt.Errorf("cluster: client for %q must run on a different host than the VM (it is a *remote* client)", d.Spec.Name)
	}
	if inter == nil {
		return nil, errors.New("cluster: remote client needs an inter-arrival distribution")
	}
	cl := &RemoteClient{
		Host: clientHost, TaskIdx: taskIdx, Delay: delay,
		Inter: inter, Service: service, Requests: requests,
		c: c, dep: d, homeHost: int32(d.hostIdx),
	}
	cl.id = c.Hosts[clientHost].Shard.Sim().RegisterHandler(cl)
	c.clients = append(c.clients, cl)
	return cl, nil
}

// PlanMigration schedules a live migration of d to host `to` at the
// absolute instant at. Plans are laid before Start; a plan that fires
// after the VM already moved elsewhere is counted and skipped.
func (c *Sharded) PlanMigration(at simtime.Time, d *ShardedDeployment, to int) error {
	if c.started {
		return errors.New("cluster: PlanMigration after Start")
	}
	if to < 0 || to >= len(c.Hosts) {
		return fmt.Errorf("cluster: migration target %d out of range", to)
	}
	if to == d.hostIdx {
		return fmt.Errorf("cluster: VM %q already on host%d", d.Spec.Name, to)
	}
	src := c.Hosts[d.hostIdx]
	src.Shard.Sim().PostAt(at, sim.Payload{Handler: src.agent.id,
		Kind: evAgentMigOut, Owner: d.id, Arg0: int64(to)})
	c.plans = append(c.plans, migPlan{src: d.hostIdx, dst: to})
	return nil
}

// hopDelay is the network latency a forwarded request pays on the
// (from, to) link: Cfg.LinkDelay when configured, the global Lookahead
// floor otherwise. A LinkDelay below the lookahead would let a forward
// outrun the conservative window, so it panics loudly.
func (c *Sharded) hopDelay(from, to int) simtime.Duration {
	if c.Cfg.LinkDelay == nil {
		return c.Cfg.Lookahead
	}
	d := c.Cfg.LinkDelay(from, to)
	if d < c.Cfg.Lookahead {
		panic(fmt.Sprintf("cluster: LinkDelay(%d, %d) = %v below lookahead %v",
			from, to, d, c.Cfg.Lookahead))
	}
	return d
}

// declareTopology hands the shard set the actual communication graph so
// it can window per edge instead of on the global minimum. Every
// cross-shard message the sharded cluster can emit travels one of three
// edges, all known before Start: a client's (client host → home host) hop
// at its own network delay, a planned migration's (source → target) hop
// at the blackout downtime (≥ MigrationDowntime), or a forwarded request
// on that same (source → target) pair at hopDelay — forwards only chase
// fired plans, and a plan only fires on the host that laid it. Parallel
// declarations keep the minimum delay per pair.
func (c *Sharded) declareTopology() {
	c.Set.UseDeclaredTopology()
	min := make(map[[2]int]simtime.Duration)
	narrow := func(from, to int, l simtime.Duration) {
		k := [2]int{from, to}
		if cur, ok := min[k]; !ok || l < cur {
			min[k] = l
		}
	}
	for _, cl := range c.clients {
		narrow(cl.Host, int(cl.homeHost), cl.Delay)
	}
	for _, p := range c.plans {
		l := c.hopDelay(p.src, p.dst)
		if c.Cfg.MigrationDowntime < l {
			l = c.Cfg.MigrationDowntime
		}
		narrow(p.src, p.dst, l)
	}
	for k, l := range min {
		c.Set.SetEdgeLookahead(k[0], k[1], l)
	}
}

// Start dispatches every host and releases the initial workload: periodic
// phases, background jobs, and the remote request streams.
func (c *Sharded) Start() {
	if c.started {
		panic("cluster: Start called twice")
	}
	c.started = true
	if !c.Cfg.GlobalWindows {
		c.declareTopology()
	}
	for _, h := range c.Hosts {
		h.Sys.Start()
	}
	for _, d := range c.deps {
		c.startTasks(d, 0)
	}
	for _, cl := range c.clients {
		s := c.Hosts[cl.Host].Shard.Sim()
		cl.rng = s.RNG().Split()
		s.PostAt(0, sim.Payload{Handler: cl.id, Kind: evRemoteFire})
	}
}

// Run advances the whole cluster by d using up to groups concurrent
// executors. Any group count produces bit-identical results; groups > 1
// only changes the wall clock.
func (c *Sharded) Run(d simtime.Duration, groups int) {
	c.Set.RunFor(d, groups)
}

// Finish settles every host's accounting (idle-time attribution etc.)
// after the last Run.
func (c *Sharded) Finish() {
	for _, h := range c.Hosts {
		h.Sys.Host.Sync()
	}
}

// HandleSimEvent implements sim.Handler for the host agent.
func (a *hostAgent) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evAgentReq:
		a.request(now, ev)
	case evAgentMigOut:
		a.migrateOut(now, ev)
	case evAgentMigIn:
		a.migrateIn(now, ev)
	default:
		panic(fmt.Sprintf("cluster: unknown agent event kind %d", ev.Kind))
	}
}

// request delivers (or forwards, or drops) one remote request.
func (a *hostAgent) request(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	if _, here := a.resident[d.id]; here {
		t := d.tasks[ev.Arg1]
		if t.Kind == task.Sporadic && t.EarliestNextRelease() > now {
			a.Stats.Throttled++
			return
		}
		d.guest.ReleaseJob(t, simtime.Duration(ev.Arg0))
		a.Stats.Delivered++
		return
	}
	if tgt, ok := a.fwd[d.id]; ok {
		// The VM moved: chase it with one more network hop at the pair's
		// link delay. The payload is re-addressed verbatim, so demand and
		// task index survive.
		a.Stats.Forwarded++
		th := a.c.Hosts[tgt]
		a.c.Hosts[a.host].Shard.PostRemote(th.Shard, now.Add(a.c.hopDelay(a.host, int(tgt))),
			sim.Payload{Handler: th.agent.id, Kind: evAgentReq,
				Owner: ev.Owner, Arg0: ev.Arg0, Arg1: ev.Arg1})
		return
	}
	// Blackout (stop-and-copy in flight) or a VM that never lived here:
	// connection refused.
	a.Stats.Dropped++
}

// migrateOut is the stop-and-copy instant on the source host.
func (a *hostAgent) migrateOut(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	target := int(ev.Arg0)
	if _, here := a.resident[d.id]; !here || target == a.host {
		a.Stats.SkippedMigrations++
		return
	}
	bw := d.Spec.Bandwidth()
	downtime := a.c.Cfg.MigrationDowntime +
		simtime.Duration(float64(a.c.Cfg.MigrationPerBW)*bw)
	// Tear down on the source: queued jobs are abandoned (visible as
	// misses), reservations released.
	if err := d.guest.Shutdown(); err != nil {
		panic(fmt.Sprintf("cluster: migrating %q out of host%d: %v", d.Spec.Name, a.host, err))
	}
	// Controllers die with the source guest: their stale window timers
	// no-op once stopped, and the target deploy builds fresh ones.
	for _, ct := range d.ctrl {
		if ct != nil {
			ct.Stop()
		}
	}
	d.ctrl = nil
	d.guest = nil
	d.migrating = true
	d.hostIdx = target
	delete(a.resident, d.id)
	a.fwd[d.id] = int32(target)
	th := a.c.Hosts[target]
	a.c.Hosts[a.host].Shard.PostRemote(th.Shard, now.Add(downtime),
		sim.Payload{Handler: th.agent.id, Kind: evAgentMigIn,
			Owner: d.id, Arg0: int64(downtime)})
}

// migrateIn ends the blackout on the target host.
func (a *hostAgent) migrateIn(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	downtime := simtime.Duration(ev.Arg0)
	d.migrating = false
	d.Migrations++
	d.BlackoutTotal += downtime
	if err := a.c.deployGuest(d, a.host); err != nil {
		// Admission failed on the target (it filled up since planning):
		// the VM stays dark. Deterministic and visible, like a pending
		// failover.
		a.Stats.FailedDeploys++
		return
	}
	a.resident[d.id] = struct{}{}
	delete(a.fwd, d.id)
	a.c.startTasks(d, now)
}

// HandleSimEvent implements sim.Handler for the remote client.
func (cl *RemoteClient) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	if ev.Kind != evRemoteFire {
		panic(fmt.Sprintf("cluster: unknown client event kind %d", ev.Kind))
	}
	if cl.Requests > 0 && cl.sent >= cl.Requests {
		return
	}
	cl.sent++
	var demand int64
	if cl.Service != nil {
		demand = int64(cl.Service.Sample(cl.rng))
	}
	home := cl.c.Hosts[cl.homeHost]
	mine := cl.c.Hosts[cl.Host].Shard
	mine.PostRemote(home.Shard, now.Add(cl.Delay), sim.Payload{
		Handler: home.agent.id, Kind: evAgentReq,
		Owner: cl.dep.id, Arg0: demand, Arg1: int64(cl.TaskIdx)})
	if cl.Requests <= 0 || cl.sent < cl.Requests {
		var gap simtime.Duration
		if cl.Proc != nil {
			gap = cl.Proc.Next(now, cl.rng)
		} else {
			gap = cl.Inter.Sample(cl.rng)
		}
		mine.Sim().PostAfter(gap, sim.Payload{Handler: cl.id, Kind: evRemoteFire})
	}
}

// DigestString renders the cluster's observable end state — per-host
// event counts and traffic stats, per-VM placement, migration and
// blackout totals, per-task deadline statistics and latency counts, and
// per-client send counts — as a deterministic string. Two runs of the
// same configuration must produce byte-identical digests regardless of
// executor group count; the golden tests and the quickcheck PDES oracle
// pin exactly that.
func (c *Sharded) DigestString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d windows=%d now=%d\n", c.Set.EventsFired(), c.Set.Windows(), c.Set.Now())
	for i, h := range c.Hosts {
		st := h.agent.Stats
		fmt.Fprintf(&b, "host%d events=%d clock=%d alloc=%.6f delivered=%d forwarded=%d dropped=%d throttled=%d skipmig=%d faildeploy=%d\n",
			i, h.Shard.Sim().EventsFired(), int64(h.Shard.Sim().Now()), h.Sys.AllocatedBandwidth(),
			st.Delivered, st.Forwarded, st.Dropped, st.Throttled, st.SkippedMigrations, st.FailedDeploys)
	}
	for _, d := range c.deps {
		fmt.Fprintf(&b, "vm %s host=%d migs=%d blackout=%d migrating=%v dark=%v\n",
			d.Spec.Name, d.hostIdx, d.Migrations, int64(d.BlackoutTotal), d.migrating, d.guest == nil)
		for i, t := range d.tasks {
			st := t.Stats()
			lat := &d.lat[i]
			fmt.Fprintf(&b, "  task %s released=%d judged=%d missed=%d done=%d maxlat=%d\n",
				t.Name, st.Released, st.Judged(), st.Missed, lat.Count(), int64(lat.Max()))
			// Controller lines appear only for adaptive tasks, so digests
			// of controller-free clusters stay byte-identical to the old
			// goldens.
			if ct := d.Controller(i); ct != nil {
				p := t.Params()
				fmt.Fprintf(&b, "  ctrl %s incs=%d decs=%d rejects=%d windows=%d skipped=%d slice=%d\n",
					t.Name, ct.Incs, ct.Decs, ct.Rejects, ct.Windows, ct.Skipped, int64(p.Slice))
			}
		}
	}
	for i, cl := range c.clients {
		fmt.Fprintf(&b, "client%d host=%d vm=%s sent=%d\n", i, cl.Host, cl.dep.Spec.Name, cl.sent)
	}
	return b.String()
}
