// Package cluster implements the multi-host extension sketched in §6 of
// the RTVirt paper: "considering the availability of multiple hosts,
// RTVirt's VM admission and scheduling process can be extended to optimize
// the placement of VMs across different hosts ... Live VM migration can be
// considered to dynamically adjust VM placement at runtime, but its
// overhead must be properly accounted for."
//
// A Sharded cluster gives every RTVirt host its own simulator and advances
// them as a conservative PDES (parallel discrete-event simulation); at one
// executor group it is a plain sequential simulator. VMs are placed by a
// pluggable bandwidth-aware policy, and can be live-migrated between hosts
// with a stop-and-copy downtime model (constant handoff plus a
// per-reserved-bandwidth term, after the authors' own migration-cost
// modelling [Wu & Zhao, CLOUD'11]). Deadline misses caused by the blackout
// are charged to the moved VM's tasks — the §6 caveat made measurable.
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

// Every host owns a sim.Simulator — its own clock, event queue, and RNG
// stream — and the sim.ShardSet advances all of them concurrently in
// lookahead windows. All cross-host interaction during a run (client→
// server request traffic, live-migration handoff, post-migration request
// forwarding) travels through the shard mailbox with at least the
// declared edge lookahead of delay, which is what makes the windows safe.
//
// Ownership discipline (what makes the parallel run race-free AND
// grouping-invariant): during a window a host's handlers may touch only
// state owned by that host. A deployment is owned by the host it resides
// on; ownership transfers through the migration protocol, whose two sides
// run at least one lookahead apart and are therefore separated by a
// barrier. Agents decide residency from their own local maps — never by
// peeking at another host's state mid-window. The only cross-host reads
// are immutable topology (shard pointers, agent handler IDs).
//
// The coordinator operations — Migrate, Rebalance, FailHost, RestoreHost —
// run on the caller's thread between Run calls, when RunUntil has settled
// every shard at the same instant, so they may read and write any host.
// They act at that instant (a source teardown, a redeploy) and hand
// everything later to the mailbox protocol, declaring each new edge
// before the next Run reseals the topology.

// Policy selects the placement heuristic.
type Policy int

// Placement policies.
const (
	// FirstFit places on the first host with room.
	FirstFit Policy = iota
	// BestFit places on the feasible host with the least remaining RT
	// bandwidth (consolidation).
	BestFit
	// WorstFit places on the feasible host with the most remaining RT
	// bandwidth (load spreading).
	WorstFit
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// TaskSpec describes one application of a VM deployment.
type TaskSpec struct {
	Name   string
	Kind   task.Kind
	Params task.Params
	// Phase delays the first periodic release after deployment.
	Phase simtime.Duration
	// Adaptive, when set, attaches a feedback controller that retunes the
	// task's slice from observed response times. Controllers are
	// host-local — they observe the resident host's trace bus and actuate
	// through the resident guest — so they preserve the sharded run's
	// executor-group invariance.
	Adaptive *guest.AdaptiveConfig
}

// VMSpec describes a deployable VM.
type VMSpec struct {
	Name  string
	VCPUs int
	Tasks []TaskSpec
}

// Bandwidth estimates the spec's RT bandwidth requirement in CPUs.
func (s VMSpec) Bandwidth() float64 {
	var sum float64
	for _, t := range s.Tasks {
		if t.Kind != task.Background {
			sum += t.Params.Bandwidth()
		}
	}
	return sum
}

// Errors.
var (
	// ErrNoHostFits is returned when no host can admit a VM.
	ErrNoHostFits = errors.New("cluster: no host with sufficient bandwidth")
	// ErrUnknownVM is returned for operations on unplaced VMs.
	ErrUnknownVM = errors.New("cluster: unknown VM")
	// ErrMigrating rejects operations on a VM mid-migration or pending.
	ErrMigrating = errors.New("cluster: VM is migrating")
)

// ShardedConfig describes a sharded cluster run.
type ShardedConfig struct {
	// Hosts is the number of hosts (= shards); PCPUs their size.
	Hosts int
	PCPUs int
	// Seed fixes the whole run. Host i's simulator is seeded with
	// splitmix64(Seed, i), so hosts share no stream structure.
	Seed uint64
	// Policy is the placement heuristic of Place, Migrate and failover.
	Policy Policy
	// System is the per-host configuration template. The cluster owns the
	// topology knobs: leave the template's PCPUs zero (or equal to
	// PCPUs), its Seed zero and SharedSim nil — Validate rejects
	// conflicting values.
	System core.Config
	// Lookahead is the conservative-window width: the minimum cross-host
	// latency. Zero selects workload.DefaultNetworkDelay() (19µs, the
	// paper's measured p99.9 network delay). Every remote client's delay
	// and the migration downtime must be ≥ Lookahead.
	Lookahead simtime.Duration
	// MigrationDowntime is the stop-and-copy blackout base cost;
	// MigrationPerBW adds blackout proportional to the VM's reserved
	// bandwidth (the dirty working set scales with activity).
	MigrationDowntime simtime.Duration
	MigrationPerBW    simtime.Duration
	// RecoveryDelay models failure detection plus VM restart after a host
	// crash: VMs of a failed host go dark for this long before they
	// resume on a survivor. A failover travels through the mailbox, so
	// it must be ≥ Lookahead.
	RecoveryDelay simtime.Duration
	// LinkDelay optionally models per-pair network latency: forwarded
	// requests chase a migrated VM at LinkDelay(src, dst) instead of the
	// global Lookahead floor, and the declared migration-pair edges widen
	// to match, so per-edge windows stretch to the topology's real link
	// latencies. Nil charges every forwarded hop exactly Lookahead. The
	// function must be pure (same inputs, same answer — Fork shares it)
	// and must never return less than Lookahead; the first undershooting
	// hop panics.
	LinkDelay func(src, dst int) simtime.Duration
}

// DefaultShardedConfig returns a 4-host × 4-CPU worst-fit RTVirt cluster
// with a 50ms+20ms/CPU migration model, a 500ms recovery delay and the
// 19µs network-delay lookahead.
func DefaultShardedConfig() ShardedConfig {
	sys := core.DefaultConfig(core.RTVirt)
	sys.PCPUs = 0
	sys.Seed = 0
	return ShardedConfig{
		Hosts:             4,
		PCPUs:             4,
		Seed:              1,
		Policy:            WorstFit,
		System:            sys,
		Lookahead:         workload.DefaultNetworkDelay(),
		MigrationDowntime: simtime.Millis(50),
		MigrationPerBW:    simtime.Millis(20),
		RecoveryDelay:     simtime.Millis(500),
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
	if cfg.MigrationPerBW < 0 {
		return fmt.Errorf("cluster: MigrationPerBW %v is negative — a blackout could fall below the lookahead",
			cfg.MigrationPerBW)
	}
	if cfg.RecoveryDelay < cfg.Lookahead {
		return fmt.Errorf("cluster: RecoveryDelay %v below lookahead %v — a failover travels through the mailbox",
			cfg.RecoveryDelay, cfg.Lookahead)
	}
	if cfg.System.SharedSim != nil {
		return errors.New("cluster: ShardedConfig.System.SharedSim must be nil; every host gets its own simulator")
	}
	if cfg.System.PCPUs != 0 && cfg.System.PCPUs != cfg.PCPUs {
		return fmt.Errorf("cluster: ShardedConfig.System.PCPUs (%d) conflicts with ShardedConfig.PCPUs (%d); leave the template's zero",
			cfg.System.PCPUs, cfg.PCPUs)
	}
	if cfg.System.Seed != 0 {
		return errors.New("cluster: ShardedConfig.System.Seed must be zero; per-host seeds derive from ShardedConfig.Seed")
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
	// evAgentMigIn ends the blackout on the target: Owner the deployment,
	// Arg0 the downtime charged, Arg1 the move kind (moveMigration or
	// moveFailover).
	evAgentMigIn
)

// Move kinds carried by evAgentMigIn: a failover is a migration whose
// source teardown was forced by a crash.
const (
	moveMigration int64 = iota
	moveFailover
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
	// VM stays dark and pending.
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
	// failed is set by FailHost and cleared by RestoreHost, between runs;
	// during a run only the host's own agent reads it.
	failed bool
}

// Agent exposes the host's traffic statistics.
func (h *ShardHost) Agent() AgentStats { return h.agent.Stats }

// Failed reports whether the host has crashed (see Sharded.FailHost).
func (h *ShardHost) Failed() bool { return h.failed }

// ReservedBandwidth reports the host's current RT reservations in CPUs.
func (h *ShardHost) ReservedBandwidth() float64 { return h.Sys.AllocatedBandwidth() }

// Capacity reports the host's RT capacity in CPUs.
func (h *ShardHost) Capacity() float64 { return float64(h.Sys.Host.NumPCPUs()) }

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

	// Migrations counts completed live migrations, Failovers restarts
	// after a host failure; BlackoutTotal accumulates both downtimes.
	Migrations    int
	Failovers     int
	BlackoutTotal simtime.Duration
	migrating     bool
	// reserved is the RT bandwidth the VM held when it last went dark.
	reserved float64
}

// HostIndex reports the host the deployment resides on (the migration
// target from the moment the stop-and-copy begins; for a pending VM, the
// host it was last bound for).
func (d *ShardedDeployment) HostIndex() int { return d.hostIdx }

// Migrating reports whether a stop-and-copy or failover blackout is in
// flight.
func (d *ShardedDeployment) Migrating() bool { return d.migrating }

// need is the RT bandwidth the VM reserves when deployed: its live
// reservation (slack included), or the one it held before going dark,
// and never less than the spec's estimate.
func (d *ShardedDeployment) need() float64 {
	r := d.reserved
	if d.guest != nil {
		r = d.guest.AllocatedBandwidth()
	}
	return max(d.Spec.Bandwidth(), r)
}

// Pending reports whether the VM is dark with no blackout in flight: its
// host crashed or its target could not admit it, and it waits for
// RestoreHost to bring capacity back.
func (d *ShardedDeployment) Pending() bool { return d.guest == nil && !d.migrating }

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
// windowed synchronization. Build it with NewSharded, place VMs with Place
// or Deploy, attach traffic with AddRemoteClient, optionally
// PlanMigration, then Start and Run; between runs, Migrate, Rebalance,
// FailHost and RestoreHost change the placement.
type Sharded struct {
	Cfg   ShardedConfig
	Set   *sim.ShardSet
	Hosts []*ShardHost

	deps       []*ShardedDeployment
	byName     map[string]*ShardedDeployment
	clients    []*RemoteClient
	nextTaskID int
	started    bool
}

// NewSharded builds the hosts, one simulator each. It panics on an
// incoherent configuration.
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

// Place admits a VM before Start onto the host chosen by Cfg.Policy.
func (c *Sharded) Place(spec VMSpec) (*ShardedDeployment, error) {
	h, err := c.pickHost(spec.Bandwidth(), -1, c.inbound())
	if err != nil {
		return nil, err
	}
	return c.Deploy(h.Shard.ID(), spec)
}

// Deploy admits a VM before Start onto an explicit host.
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
// deadline statistics — blackout-induced misses included — across
// migrations.
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
	c.narrowEdge(clientHost, d.hostIdx, delay)
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
	// The plan fires only on the host that laid it, so its handoff and
	// the requests forwarded after it travel this one pair.
	c.narrowEdge(d.hostIdx, to, min(c.hopDelay(d.hostIdx, to), c.Cfg.MigrationDowntime))
	src := c.Hosts[d.hostIdx]
	src.Shard.Sim().PostAt(at, sim.Payload{Handler: src.agent.id,
		Kind: evAgentMigOut, Owner: d.id, Arg0: int64(to)})
	return nil
}

// downtime is d's stop-and-copy blackout: base plus per-bandwidth term.
func (c *Sharded) downtime(d *ShardedDeployment) simtime.Duration {
	return c.Cfg.MigrationDowntime + simtime.Duration(float64(c.Cfg.MigrationPerBW)*d.Spec.Bandwidth())
}

// inbound sums, per host, the bandwidth of VMs whose blackout is in flight
// toward it, so placement and rebalancing do not overfill a host that is
// about to receive them. Read between runs only.
func (c *Sharded) inbound() []float64 {
	in := make([]float64, len(c.Hosts))
	for _, d := range c.deps {
		if d.migrating {
			in[d.hostIdx] += d.need()
		}
	}
	return in
}

// free reports the host's unreserved RT capacity net of the inbound
// blackouts in (see Sharded.inbound).
func (h *ShardHost) free(in []float64) float64 {
	return h.Capacity() - h.ReservedBandwidth() - in[h.Shard.ID()]
}

// pickHost applies the placement policy to the live hosts other than
// exclude (-1 excludes none).
func (c *Sharded) pickHost(bw float64, exclude int, in []float64) (*ShardHost, error) {
	var best *ShardHost
	var bestFree float64
	for i, h := range c.Hosts {
		if i == exclude || h.failed {
			continue
		}
		free := h.free(in)
		if free < bw {
			continue
		}
		switch c.Cfg.Policy {
		case FirstFit:
			return h, nil
		case BestFit:
			if best == nil || free < bestFree {
				best, bestFree = h, free
			}
		case WorstFit:
			if best == nil || free > bestFree {
				best, bestFree = h, free
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: need %.3f CPUs", ErrNoHostFits, bw)
	}
	return best, nil
}

// move starts d's blackout toward host `to` at the current instant,
// declaring the edge its handoff and forwarded requests travel. The
// target drops a stale forwarding entry, so requests reaching it during
// the blackout are refused instead of bouncing back along the chain.
func (c *Sharded) move(d *ShardedDeployment, to int, downtime simtime.Duration, kind int64) {
	from := c.Hosts[d.hostIdx]
	c.narrowEdge(from.Shard.ID(), to, min(c.hopDelay(from.Shard.ID(), to), downtime))
	delete(c.Hosts[to].agent.fwd, d.id)
	from.agent.moveOut(from.Shard.Sim().Now(), d, to, downtime, kind)
}

// Migrate live-migrates a VM between runs to target (nil = pick by
// policy): the VM goes dark on its source now, stays dark for the
// stop-and-copy downtime, and resumes on the target. In-flight jobs at
// the blackout are abandoned (they count as misses — the §6 overhead made
// visible).
func (c *Sharded) Migrate(name string, target *ShardHost) (*ShardHost, error) {
	if !c.started {
		return nil, errors.New("cluster: Migrate before Start")
	}
	d, ok := c.byName[name]
	if !ok {
		return nil, ErrUnknownVM
	}
	if d.migrating || d.Pending() {
		return nil, ErrMigrating
	}
	bw := d.need()
	in := c.inbound()
	switch {
	case target == nil:
		t, err := c.pickHost(bw, d.hostIdx, in)
		if err != nil {
			return nil, err
		}
		target = t
	case target.Shard.ID() == d.hostIdx:
		return nil, fmt.Errorf("cluster: VM %q already on %s", name, target.Name)
	case target.failed || target.free(in) < bw:
		return nil, fmt.Errorf("%w: %s lacks %.3f CPUs", ErrNoHostFits, target.Name, bw)
	}
	c.move(d, target.Shard.ID(), c.downtime(d), moveMigration)
	return target, nil
}

// Rebalance migrates VMs from the most- to the least-loaded live host
// until the reserved-bandwidth spread (in-flight inbound included) is
// within tolerance CPUs, and reports how many migrations it started.
func (c *Sharded) Rebalance(tolerance float64) int {
	moves := 0
	for iter := 0; iter < len(c.deps)+1; iter++ {
		in := c.inbound()
		load := func(h *ShardHost) float64 { return h.ReservedBandwidth() + in[h.Shard.ID()] }
		var hi, lo *ShardHost
		for _, h := range c.Hosts {
			if h.failed {
				continue
			}
			if hi == nil || load(h) > load(hi) {
				hi = h
			}
			if lo == nil || load(h) < load(lo) {
				lo = h
			}
		}
		if hi == lo {
			break
		}
		gap := load(hi) - load(lo)
		if gap <= tolerance {
			break
		}
		// Move the largest VM on hi that still shrinks the gap.
		var candidate *ShardedDeployment
		for _, d := range c.deps {
			if d.hostIdx != hi.Shard.ID() || d.guest == nil {
				continue
			}
			if bw := d.need(); bw < gap && (candidate == nil || bw > candidate.need()) {
				candidate = d
			}
		}
		if candidate == nil {
			break
		}
		if _, err := c.Migrate(candidate.Spec.Name, lo); err != nil {
			break
		}
		moves++
	}
	return moves
}

// FailHost crashes a host between runs: every VM on it goes dark now
// (in-flight and queued jobs are abandoned — visible as deadline misses),
// and the host stops taking placements. Each VM fails over like a
// migration whose downtime is Cfg.RecoveryDelay, to a survivor the policy
// picks now; a VM that fits nowhere is Pending until RestoreHost brings
// capacity back. VMs whose blackout is in flight toward the host are
// re-addressed to a fallback survivor (or go pending on arrival). The
// evicted deployments are returned; failing a failed host is a no-op.
func (c *Sharded) FailHost(h *ShardHost) []*ShardedDeployment {
	if !c.started {
		panic("cluster: FailHost before Start")
	}
	if h.failed {
		return nil
	}
	h.failed = true
	id := h.Shard.ID()
	in := c.inbound()
	var affected []*ShardedDeployment
	for _, d := range c.deps {
		if d.hostIdx != id || d.Pending() {
			continue
		}
		bw := d.need()
		f, err := c.pickHost(bw, id, in)
		switch {
		case d.migrating && err == nil:
			// Its handoff arrives here; migrateIn chases it to f, and so do
			// late requests.
			fid := f.Shard.ID()
			d.hostIdx = fid
			h.agent.fwd[d.id] = int32(fid)
			delete(f.agent.fwd, d.id)
			c.narrowEdge(id, fid, c.hopDelay(id, fid))
			in[fid] += bw
		case d.migrating:
			// No survivor has room: the VM goes pending on arrival.
		case err == nil:
			c.move(d, f.Shard.ID(), c.Cfg.RecoveryDelay, moveFailover)
			in[f.Shard.ID()] += bw
			affected = append(affected, d)
		default:
			h.agent.evict(d)
			affected = append(affected, d)
		}
	}
	return affected
}

// RestoreHost brings a failed host back between runs (empty — its VMs
// failed over or are pending) and immediately redeploys every pending VM
// the policy finds room for; each counts as a failover. Restoring a live
// host is a no-op.
func (c *Sharded) RestoreHost(h *ShardHost) {
	if !h.failed {
		return
	}
	h.failed = false
	in := c.inbound()
	for _, d := range c.deps {
		if !d.Pending() {
			continue
		}
		t, err := c.pickHost(d.need(), -1, in)
		if err != nil {
			continue
		}
		from, to := d.hostIdx, t.Shard.ID()
		if t.agent.land(t.Shard.Sim().Now(), d) != nil {
			continue
		}
		d.Failovers++
		delete(t.agent.fwd, d.id)
		if from != to {
			c.Hosts[from].agent.fwd[d.id] = int32(to)
			c.narrowEdge(from, to, c.hopDelay(from, to))
		}
	}
}

// narrowEdge declares the from→to edge at lookahead l, or keeps its
// current lookahead if that is already smaller: parallel uses of one
// pair keep the minimum. Every path a message can take is declared where
// it is created — a client's (client → home) link at its network delay,
// a move's (source → target) pair at the cheaper of its handoff and a
// forwarded request (hopDelay), a FailHost re-address or a RestoreHost
// redeploy at hopDelay — so the shard set windows per edge and hosts
// that never talk never constrain each other.
func (c *Sharded) narrowEdge(from, to int, l simtime.Duration) {
	if cur := c.Set.EdgeLookahead(from, to); cur == 0 || l < cur {
		c.Set.SetEdgeLookahead(from, to, l)
	}
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

// Start dispatches every host and releases the initial workload: periodic
// phases, background jobs, and the remote request streams.
func (c *Sharded) Start() {
	if c.started {
		panic("cluster: Start called twice")
	}
	c.started = true
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

// migrateOut fires a planned migration on the source host.
func (a *hostAgent) migrateOut(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	target := int(ev.Arg0)
	if _, here := a.resident[d.id]; !here || target == a.host {
		a.Stats.SkippedMigrations++
		return
	}
	a.moveOut(now, d, target, a.c.downtime(d), moveMigration)
}

// moveOut is the stop-and-copy instant on the source host: the VM goes
// dark here, late requests are forwarded to target, and the blackout's
// end travels to target through the mailbox.
func (a *hostAgent) moveOut(now simtime.Time, d *ShardedDeployment, target int, downtime simtime.Duration, kind int64) {
	a.evict(d)
	d.migrating = true
	d.hostIdx = target
	a.fwd[d.id] = int32(target)
	th := a.c.Hosts[target]
	a.c.Hosts[a.host].Shard.PostRemote(th.Shard, now.Add(downtime),
		sim.Payload{Handler: th.agent.id, Kind: evAgentMigIn,
			Owner: d.id, Arg0: int64(downtime), Arg1: kind})
}

// evict tears the deployment down on this host: queued jobs are abandoned
// (visible as misses) and reservations released. Controllers die with the
// guest — their stale window timers no-op once stopped, and the next
// deploy builds fresh ones.
func (a *hostAgent) evict(d *ShardedDeployment) {
	d.reserved = d.guest.AllocatedBandwidth()
	if err := d.guest.Shutdown(); err != nil {
		panic(fmt.Sprintf("cluster: evicting %q from host%d: %v", d.Spec.Name, a.host, err))
	}
	for _, ct := range d.ctrl {
		if ct != nil {
			ct.Stop()
		}
	}
	d.ctrl = nil
	d.guest = nil
	delete(a.resident, d.id)
}

// migrateIn ends the blackout on the target host.
func (a *hostAgent) migrateIn(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	downtime := simtime.Duration(ev.Arg0)
	if d.hostIdx != a.host {
		// FailHost re-addressed the VM while its blackout was in flight
		// toward this host: chase it along this host's forwarding entry
		// (always a declared edge; d.hostIdx may be several re-addresses
		// away) with one more network hop, charged to the blackout.
		to := int(a.fwd[d.id])
		hop := a.c.hopDelay(a.host, to)
		th := a.c.Hosts[to]
		a.c.Hosts[a.host].Shard.PostRemote(th.Shard, now.Add(hop),
			sim.Payload{Handler: th.agent.id, Kind: evAgentMigIn,
				Owner: d.id, Arg0: int64(downtime + hop), Arg1: ev.Arg1})
		return
	}
	d.migrating = false
	if ev.Arg1 == moveMigration {
		d.Migrations++
	}
	d.BlackoutTotal += downtime
	// The VM is here now, running or not: a stale forwarding entry from an
	// earlier stay would bounce its requests around a cycle.
	delete(a.fwd, d.id)
	if a.c.Hosts[a.host].failed {
		// The target crashed mid-blackout and no survivor had room: the
		// VM stays pending until RestoreHost.
		return
	}
	if err := a.land(now, d); err != nil {
		// Admission failed on the target (it filled up since planning):
		// the VM stays dark and pending. Deterministic and visible.
		a.Stats.FailedDeploys++
		return
	}
	if ev.Arg1 == moveFailover {
		d.Failovers++
	}
}

// land deploys d on this host and resumes its tasks at now.
func (a *hostAgent) land(now simtime.Time, d *ShardedDeployment) error {
	if err := a.c.deployGuest(d, a.host); err != nil {
		return err
	}
	a.resident[d.id] = struct{}{}
	a.c.startTasks(d, now)
	return nil
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
	// Failure state appears only once FailHost has been called, so digests
	// of worlds without crashes stay byte-identical to the old goldens.
	for i, h := range c.Hosts {
		st := h.agent.Stats
		fmt.Fprintf(&b, "host%d events=%d clock=%d alloc=%.6f delivered=%d forwarded=%d dropped=%d throttled=%d skipmig=%d faildeploy=%d",
			i, h.Shard.Sim().EventsFired(), int64(h.Shard.Sim().Now()), h.Sys.AllocatedBandwidth(),
			st.Delivered, st.Forwarded, st.Dropped, st.Throttled, st.SkippedMigrations, st.FailedDeploys)
		if h.failed {
			b.WriteString(" failed")
		}
		b.WriteByte('\n')
	}
	for _, d := range c.deps {
		fmt.Fprintf(&b, "vm %s host=%d migs=%d blackout=%d migrating=%v dark=%v",
			d.Spec.Name, d.hostIdx, d.Migrations, int64(d.BlackoutTotal), d.migrating, d.guest == nil)
		if d.Failovers > 0 {
			fmt.Fprintf(&b, " failovers=%d", d.Failovers)
		}
		b.WriteByte('\n')
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
