package cluster

import (
	"fmt"
	"strings"
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/dist"
	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// buildSharded assembles the golden-test world: 4 hosts, 8 VMs mixing
// periodic, sporadic (client-driven), and background load, a remote
// client per VM on a neighboring host, two live migrations, and one
// migration plan that fires after its VM already left.
func buildSharded(t *testing.T) *Sharded {
	t.Helper()
	return buildShardedWith(t, func(cfg *ShardedConfig) {
		cfg.MigrationDowntime = simtime.Millis(10)
		cfg.MigrationPerBW = simtime.Millis(5)
	}, simtime.Time(0).Add(simtime.Millis(40)))
}

// buildShardedWith is buildSharded with a config hook and a movable
// instant for the first migration, so the fork test can park a blackout
// across its fork point.
func buildShardedWith(t *testing.T, mutate func(*ShardedConfig), firstMigAt simtime.Time) *Sharded {
	t.Helper()
	cfg := DefaultShardedConfig()
	mutate(&cfg)
	c := NewSharded(cfg)
	for h := 0; h < cfg.Hosts; h++ {
		for v := 0; v < 2; v++ {
			spec := VMSpec{
				Name:  fmt.Sprintf("vm%d-%d", h, v),
				VCPUs: 2,
				Tasks: []TaskSpec{
					{Name: "rt", Kind: task.Periodic,
						Params: task.Params{Slice: simtime.Micros(300), Period: simtime.Millis(4)},
						Phase:  simtime.Micros(int64(100 * (h + v)))},
					{Name: "srv", Kind: task.Sporadic,
						Params: task.Params{Slice: simtime.Micros(200), Period: simtime.Millis(1)}},
					{Name: "bg", Kind: task.Background},
				},
			}
			d, err := c.Deploy(h, spec)
			if err != nil {
				t.Fatalf("deploy %s: %v", spec.Name, err)
			}
			// Heterogeneous link delays: every client edge gets its own
			// latency, so the per-edge window bounds differ per host pair.
			_, err = c.AddRemoteClient((h+1)%cfg.Hosts, d, 1,
				cfg.Lookahead+simtime.Micros(int64(3*v+150*h)),
				dist.Uniform{Lo: simtime.Micros(400), Hi: simtime.Millis(2)},
				dist.Uniform{Lo: simtime.Micros(60), Hi: simtime.Micros(180)}, 0)
			if err != nil {
				t.Fatalf("client for %s: %v", spec.Name, err)
			}
		}
	}
	mustPlan := func(at simtime.Time, name string, to int) {
		t.Helper()
		d, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("no VM %q", name)
		}
		if err := c.PlanMigration(at, d, to); err != nil {
			t.Fatalf("plan %s -> host%d: %v", name, to, err)
		}
	}
	mustPlan(firstMigAt, "vm0-0", 2)
	mustPlan(simtime.Time(0).Add(simtime.Millis(90)), "vm1-1", 3)
	// Fires at 120ms on host 0, long after vm0-0 moved to host 2: the
	// source agent must count it as skipped, deterministically.
	mustPlan(simtime.Time(0).Add(simtime.Millis(120)), "vm0-0", 1)
	return c
}

type shardedRun struct {
	digest string
	disp   []uint64
	c      *Sharded
}

func runSharded(t *testing.T, groups int, span simtime.Duration) shardedRun {
	t.Helper()
	return runShardedWorld(buildSharded(t), groups, span)
}

// runShardedWorld advances c over span with the given executor group
// count, tracing every host's dispatch stream into its own digest.
func runShardedWorld(c *Sharded, groups int, span simtime.Duration) shardedRun {
	digs := make([]*check.DispatchDigest, len(c.Hosts))
	for i, h := range c.Hosts {
		digs[i] = check.NewDispatchDigest()
		h.Sys.Host.TraceTo(digs[i])
	}
	c.Start()
	c.Run(span, groups)
	c.Finish()
	sums := make([]uint64, len(digs))
	for i, d := range digs {
		sums[i] = d.Sum()
	}
	return shardedRun{digest: c.DigestString(), disp: sums, c: c}
}

// TestShardedGroupInvariance is the determinism golden: the same cluster
// advanced with 1, 2, 4, and 8 executor groups must produce byte-identical
// digests and identical per-host dispatch streams.
func TestShardedGroupInvariance(t *testing.T) {
	span := simtime.Millis(300)
	// The subtest is named for the event queue the world runs on.
	t.Run("heap", func(t *testing.T) {
		base := runSharded(t, 1, span)
		// The golden world must actually exercise the machinery.
		var delivered, forwarded, skipped uint64
		for _, h := range base.c.Hosts {
			delivered += h.Agent().Delivered
			forwarded += h.Agent().Forwarded
			skipped += h.Agent().SkippedMigrations
		}
		if delivered == 0 || forwarded == 0 {
			t.Fatalf("degenerate world: delivered=%d forwarded=%d", delivered, forwarded)
		}
		if skipped != 1 {
			t.Fatalf("want exactly 1 skipped migration plan, got %d", skipped)
		}
		if d, _ := base.c.Lookup("vm0-0"); d.Migrations != 1 || d.HostIndex() != 2 {
			t.Fatalf("vm0-0 should have completed one migration to host2: migs=%d host=%d",
				d.Migrations, d.HostIndex())
		}
		for _, g := range []int{2, 4, 8} {
			got := runSharded(t, g, span)
			if got.digest != base.digest {
				t.Errorf("groups=%d digest differs from sequential:\n--- groups=1 ---\n%s--- groups=%d ---\n%s",
					g, base.digest, g, got.digest)
			}
			for i := range got.disp {
				if got.disp[i] != base.disp[i] {
					t.Errorf("groups=%d host%d dispatch digest %016x != sequential %016x",
						g, i, got.disp[i], base.disp[i])
				}
			}
		}
	})
}

// rackSize groups the rack world's hosts; a client's link delay to a
// cache depends only on how many racks lie between them.
const rackSize = 8

func rackLinkDelay(src, dst int) simtime.Duration {
	switch d := src/rackSize - dst/rackSize; {
	case d == 0:
		return simtime.Micros(120)
	case d == 1 || d == -1:
		return simtime.Micros(180)
	default:
		return simtime.Micros(260)
	}
}

// buildRackWorld assembles the memcached-style rack cluster: every host
// serves two cache VMs (a sporadic memc server, a periodic RT task and a
// background hog) whose servers are fed by clients on the next two hosts
// at the rack-distance link delay, and eight planned migrations ripple
// through the first hosts.
func buildRackWorld(t *testing.T, hosts int) (*Sharded, []*RemoteClient) {
	t.Helper()
	cfg := DefaultShardedConfig()
	cfg.Hosts = hosts
	cfg.PCPUs = 4
	cfg.Seed = 1
	cfg.LinkDelay = rackLinkDelay
	c := NewSharded(cfg)
	var clients []*RemoteClient
	for h := 0; h < hosts; h++ {
		for v := 0; v < 2; v++ {
			spec := VMSpec{
				Name:  fmt.Sprintf("cache%d-%d", h, v),
				VCPUs: 2,
				Tasks: []TaskSpec{
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
				t.Fatalf("deploy %s: %v", spec.Name, err)
			}
			for _, src := range []int{(h + 1) % hosts, (h + 2) % hosts} {
				cl, err := c.AddRemoteClient(src, d, 0, rackLinkDelay(src, h),
					dist.Uniform{Lo: simtime.Micros(150), Hi: simtime.Micros(500)},
					dist.Uniform{Lo: simtime.Micros(20), Hi: simtime.Micros(80)}, 0)
				if err != nil {
					t.Fatalf("client for %s: %v", spec.Name, err)
				}
				clients = append(clients, cl)
			}
		}
	}
	for k := 0; k < 8; k++ {
		d, _ := c.Lookup(fmt.Sprintf("cache%d-0", k))
		at := simtime.Time(0).Add(simtime.Millis(int64(100 * (k + 1))))
		if err := c.PlanMigration(at, d, (k+1)%hosts); err != nil {
			t.Fatalf("plan migration %d: %v", k, err)
		}
	}
	return c, clients
}

// TestShardedRackTopologyGroupIdentity runs the rack world at 24 hosts —
// three racks, so same-, adjacent- and distant-rack edges all carry
// traffic — for one simulated second under 1, 2, 4 and 8 executor
// groups. Every group count must produce a byte-identical cluster digest
// and identical per-host dispatch streams, and the world's size is
// pinned so a change to the conservative window protocol or to the
// world itself shows up as a count change rather than passing silently.
func TestShardedRackTopologyGroupIdentity(t *testing.T) {
	const hosts = 24
	run := func(groups int) (shardedRun, []*RemoteClient) {
		c, clients := buildRackWorld(t, hosts)
		return runShardedWorld(c, groups, simtime.Second), clients
	}

	base, clients := run(1)
	delays := map[simtime.Duration]bool{}
	var requests uint64
	for _, cl := range clients {
		delays[cl.Delay] = true
		requests += uint64(cl.Sent())
	}
	if len(delays) != 3 {
		t.Fatalf("want clients on all three rack distances, got link delays %v", delays)
	}
	var migrations int
	for _, d := range base.c.Deployments() {
		migrations += d.Migrations
	}
	for _, pin := range []struct {
		name      string
		got, want uint64
	}{
		{"windows", base.c.Set.Windows(), 7982},
		{"events", base.c.Set.EventsFired(), 914199},
		{"requests", requests, 295784},
		{"migrations", uint64(migrations), 8},
	} {
		if pin.got != pin.want {
			t.Errorf("%s = %d, want %d", pin.name, pin.got, pin.want)
		}
	}

	for _, g := range []int{2, 4, 8} {
		got, _ := run(g)
		if got.digest != base.digest {
			t.Errorf("groups=%d digest differs from sequential:\n--- groups=1 ---\n%s--- groups=%d ---\n%s",
				g, base.digest, g, got.digest)
		}
		for i := range got.disp {
			if got.disp[i] != base.disp[i] {
				t.Errorf("groups=%d host%d dispatch digest %016x != sequential %016x",
					g, i, got.disp[i], base.disp[i])
			}
		}
	}
}

// TestShardedGroupInvarianceNoisyCosts re-runs the group-invariance
// golden under the distribution-valued calibrated cost model. Each shard
// derives its own cost stream from its own simulator seed (never from the
// shared main stream), so enabling noise must preserve digest identity
// across executor group counts — and the noisy world must actually differ
// from the constant-cost world, or the test is vacuous.
func TestShardedGroupInvarianceNoisyCosts(t *testing.T) {
	span := simtime.Millis(200)
	run := func(groups int, noisy bool) string {
		c := buildShardedWith(t, func(cfg *ShardedConfig) {
			cfg.MigrationDowntime = simtime.Millis(10)
			cfg.MigrationPerBW = simtime.Millis(5)
			if noisy {
				cfg.System.Costs = hv.CalibratedCosts()
			}
		}, simtime.Time(0).Add(simtime.Millis(40)))
		c.Start()
		c.Run(span, groups)
		c.Finish()
		return c.DigestString()
	}
	base := run(1, true)
	for _, g := range []int{2, 4, 8} {
		if got := run(g, true); got != base {
			t.Errorf("groups=%d digest differs under calibrated costs:\n--- groups=1 ---\n%s--- groups=%d ---\n%s",
				g, base, g, got)
		}
	}
	if run(1, false) == base {
		t.Error("calibrated-cost digest matches constant-cost digest — noise not applied")
	}
}

// TestShardedMigrationForwarding pins the traffic protocol around a live
// migration: the source forwards late requests to the VM's new host, the
// target drops requests that arrive mid-blackout, and the blackout total
// matches the configured stop-and-copy model.
func TestShardedMigrationForwarding(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.Hosts = 2
	cfg.MigrationDowntime = simtime.Millis(20)
	cfg.MigrationPerBW = simtime.Millis(10)
	c := NewSharded(cfg)
	spec := VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
		{Name: "req", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Micros(500)}},
	}}
	d, err := c.Deploy(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A steady client on host 1 hammers the VM; the VM then migrates to
	// host 1, so every post-migration request takes the forwarding hop
	// host0 -> host1.
	if _, err := c.AddRemoteClient(1, d, 0, cfg.Lookahead,
		dist.Constant{D: simtime.Micros(200)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PlanMigration(simtime.Time(0).Add(simtime.Millis(50)), d, 1); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Millis(200), 2)
	c.Finish()

	wantDowntime := cfg.MigrationDowntime +
		simtime.Duration(float64(cfg.MigrationPerBW)*spec.Bandwidth())
	if d.Migrations != 1 || d.Migrating() || d.Guest() == nil {
		t.Fatalf("migration did not complete: migs=%d migrating=%v dark=%v",
			d.Migrations, d.Migrating(), d.Guest() == nil)
	}
	if d.HostIndex() != 1 {
		t.Fatalf("VM on host%d, want host1", d.HostIndex())
	}
	if d.BlackoutTotal != wantDowntime {
		t.Fatalf("blackout %v, want %v", d.BlackoutTotal, wantDowntime)
	}
	src, dst := c.Hosts[0].Agent(), c.Hosts[1].Agent()
	if src.Forwarded == 0 {
		t.Error("source host forwarded nothing after the VM left")
	}
	if dst.Dropped == 0 {
		t.Error("target host dropped nothing during the blackout")
	}
	if src.Delivered == 0 || dst.Delivered == 0 {
		t.Errorf("both hosts should have delivered requests: src=%d dst=%d",
			src.Delivered, dst.Delivered)
	}
	// The 200µs stream against a 500µs minimum inter-arrival must throttle.
	if src.Throttled+dst.Throttled == 0 {
		t.Error("sporadic minimum inter-arrival never throttled a request")
	}
	// Nothing vanished: every request the client sent was delivered,
	// throttled, or dropped exactly once (forwards re-deliver elsewhere,
	// and up to one forwarded request may still be in flight at the end).
	cl := c.clients[0]
	accounted := src.Delivered + dst.Delivered + src.Throttled + dst.Throttled +
		src.Dropped + dst.Dropped
	if accounted > uint64(cl.Sent()) || uint64(cl.Sent())-accounted > 1 {
		t.Errorf("request conservation: sent=%d accounted=%d", cl.Sent(), accounted)
	}
}

// TestShardedLinkDelay pins the per-pair link-delay model: forwarded
// requests pay LinkDelay(src, dst) instead of the global lookahead floor,
// the run stays deterministic across executor groups, and a LinkDelay
// returning less than the lookahead panics loudly (where PlanMigration
// prices the migration edge).
func TestShardedLinkDelay(t *testing.T) {
	build := func(link func(int, int) simtime.Duration) (*Sharded, *ShardedDeployment) {
		t.Helper()
		cfg := DefaultShardedConfig()
		cfg.Hosts = 2
		cfg.MigrationDowntime = simtime.Millis(20)
		cfg.MigrationPerBW = simtime.Millis(10)
		cfg.LinkDelay = link
		c := NewSharded(cfg)
		d, err := c.Deploy(0, VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
			{Name: "req", Kind: task.Sporadic,
				Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Micros(500)}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddRemoteClient(1, d, 0, simtime.Micros(400),
			dist.Constant{D: simtime.Micros(200)}, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.PlanMigration(simtime.Time(0).Add(simtime.Millis(50)), d, 1); err != nil {
			t.Fatal(err)
		}
		return c, d
	}

	slow := func(src, dst int) simtime.Duration { return simtime.Micros(350) }
	run := func(groups int) (*Sharded, *ShardedDeployment) {
		c, d := build(slow)
		c.Start()
		c.Run(simtime.Millis(200), groups)
		c.Finish()
		return c, d
	}
	c1, d1 := run(1)
	c2, _ := run(2)
	if c1.DigestString() != c2.DigestString() {
		t.Errorf("link-delay world diverged across groups:\n--- groups=1 ---\n%s--- groups=2 ---\n%s",
			c1.DigestString(), c2.DigestString())
	}
	if d1.Migrations != 1 {
		t.Fatalf("migration did not complete: %d", d1.Migrations)
	}
	if fwd := c1.Hosts[0].Agent().Forwarded; fwd == 0 {
		t.Error("no request took the forwarding hop despite the steady client")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("LinkDelay below the lookahead did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "below lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c, _ := build(func(int, int) simtime.Duration { return simtime.Micros(1) })
	c.Start()
}

// TestShardedConfigValidation covers the config rejections.
func TestShardedConfigValidation(t *testing.T) {
	good := DefaultShardedConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.MigrationDowntime = good.Lookahead / 2
	if err := bad.Validate(); err == nil {
		t.Error("downtime below lookahead accepted")
	}
	bad = good
	bad.Hosts = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero hosts accepted")
	}
	bad = good
	bad.System.Seed = 7
	if err := bad.Validate(); err == nil {
		t.Error("non-zero template seed accepted")
	}
	bad = good
	bad.System.PCPUs = good.PCPUs + 1
	if err := bad.Validate(); err == nil {
		t.Error("conflicting template PCPUs accepted")
	}
	// Timing rows: the error must name the offending field.
	for _, tc := range []struct {
		field  string
		mutate func(*ShardedConfig)
	}{
		{"MigrationPerBW", func(c *ShardedConfig) { c.MigrationPerBW = -simtime.Millis(20) }},
		{"RecoveryDelay", func(c *ShardedConfig) { c.RecoveryDelay = good.Lookahead - 1 }},
		{"RecoveryDelay", func(c *ShardedConfig) { c.RecoveryDelay = 0 }},
	} {
		bad = good
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want an error naming the field", tc.field, err)
		}
	}
	// A negative MigrationPerBW used to pass Validate and panic inside a
	// PDES window instead; NewSharded now refuses it up front.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MigrationPerBW") {
			t.Errorf("NewSharded with a negative MigrationPerBW: recovered %v", r)
		}
	}()
	bad = good
	bad.MigrationPerBW = -simtime.Millis(100)
	NewSharded(bad)
}

// TestShardedClientValidation covers remote-client admission rules.
func TestShardedClientValidation(t *testing.T) {
	c := NewSharded(DefaultShardedConfig())
	d, err := c.Deploy(0, VMSpec{Name: "v", Tasks: []TaskSpec{
		{Name: "s", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Millis(1)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inter := dist.Constant{D: simtime.Millis(1)}
	if _, err := c.AddRemoteClient(1, d, 0, c.Cfg.Lookahead-1, inter, nil, 0); err == nil {
		t.Error("delay below lookahead accepted")
	}
	if _, err := c.AddRemoteClient(0, d, 0, c.Cfg.Lookahead, inter, nil, 0); err == nil {
		t.Error("co-located client accepted")
	}
	if _, err := c.AddRemoteClient(1, d, 5, c.Cfg.Lookahead, inter, nil, 0); err == nil {
		t.Error("task index out of range accepted")
	}
	if _, err := c.AddRemoteClient(1, d, 0, c.Cfg.Lookahead, nil, nil, 0); err == nil {
		t.Error("nil inter-arrival accepted")
	}
}
