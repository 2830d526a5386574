package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"rtvirt/internal/dist"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func vmSpec(name string, sliceMS, periodMS int64) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: 1,
		Tasks: []TaskSpec{{
			Name:   name + "-rta",
			Kind:   task.Periodic,
			Params: task.Params{Slice: ms(sliceMS), Period: ms(periodMS)},
		}},
	}
}

// twoHostConfig is a 2×4-CPU worst-fit cluster with the default migration
// and recovery model.
func twoHostConfig() ShardedConfig {
	cfg := DefaultShardedConfig()
	cfg.Hosts = 2
	return cfg
}

// hostOf returns the host d resides on (or is bound for).
func hostOf(c *Sharded, d *ShardedDeployment) *ShardHost { return c.Hosts[d.HostIndex()] }

func TestPlacementPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		// After placing 0.5 on host0, where does the next 0.3 go?
		wantSame bool
	}{
		{FirstFit, true},  // host0 still fits
		{BestFit, true},   // host0 has least free space and fits
		{WorstFit, false}, // host1 has more room
	} {
		cfg := twoHostConfig()
		cfg.Policy = tc.policy
		c := NewSharded(cfg)
		d1, err := c.Place(vmSpec("a", 20, 10*4)) // 0.5
		if err != nil {
			t.Fatalf("%v: %v", tc.policy, err)
		}
		d2, err := c.Place(vmSpec("b", 12, 40)) // 0.3
		if err != nil {
			t.Fatalf("%v: %v", tc.policy, err)
		}
		same := d1.HostIndex() == d2.HostIndex()
		if same != tc.wantSame {
			t.Errorf("%v: same-host = %v, want %v", tc.policy, same, tc.wantSame)
		}
	}
}

func TestPlaceRejectsWhenFull(t *testing.T) {
	cfg := twoHostConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	for i := 0; i < 2; i++ {
		if _, err := c.Place(vmSpec(fmt.Sprintf("big%d", i), 9, 10)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Place(vmSpec("extra", 5, 10))
	if !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("err = %v, want ErrNoHostFits", err)
	}
}

func TestPlacedVMsMeetDeadlines(t *testing.T) {
	c := NewSharded(twoHostConfig())
	var vms []*ShardedDeployment
	for i := 0; i < 6; i++ {
		d, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 4, 10)) // 0.4 each
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, d)
	}
	c.Start()
	c.Run(5*simtime.Second, 2)
	for _, d := range vms {
		for _, tk := range d.Tasks() {
			if st := tk.Stats(); st.Missed != 0 {
				t.Errorf("%s/%s missed %d", d.Spec.Name, tk.Name, st.Missed)
			}
		}
	}
}

func TestLiveMigration(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("mover", 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	src := hostOf(c, d)
	c.Start()
	c.Run(2*simtime.Second, 1)

	target, err := c.Migrate("mover", nil)
	if err != nil {
		t.Fatal(err)
	}
	if target == src {
		t.Fatal("migrated to the source host")
	}
	// During the blackout the VM holds no reservation anywhere.
	if bw := src.ReservedBandwidth(); bw > 0.01 {
		t.Fatalf("source still reserves %.3f during blackout", bw)
	}
	if !d.Migrating() || d.Guest() != nil {
		t.Fatalf("no blackout after Migrate: migrating=%v dark=%v", d.Migrating(), d.Guest() == nil)
	}
	c.Run(2*simtime.Second, 1)
	if hostOf(c, d) != target || d.Migrations != 1 {
		t.Fatalf("migration not completed: host=%v migrations=%d", hostOf(c, d).Name, d.Migrations)
	}
	if d.BlackoutTotal < cfg.MigrationDowntime {
		t.Fatalf("blackout %v below base downtime", d.BlackoutTotal)
	}
	// The VM runs again on the target: fresh releases complete.
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Second, 1)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after migration")
	}
	// The §6 caveat: the blackout shows up as bounded misses. With a 10ms
	// period and ~58ms downtime, only the in-flight job dies (releases
	// pause during the blackout).
	if miss := tk.Stats().Missed; miss == 0 || miss > 20 {
		t.Fatalf("migration-induced misses = %d, want a small positive count", miss)
	}
}

func TestMigrateErrors(t *testing.T) {
	cfg := twoHostConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("a", 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("a", nil); err == nil {
		t.Fatal("Migrate before Start accepted")
	}
	// Fill the other host so nothing fits.
	other := c.Hosts[0]
	if other == hostOf(c, d) {
		other = c.Hosts[1]
	}
	if _, err := c.Place(vmSpec("blocker", 9, 10)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	if _, err := c.Migrate("ghost", nil); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("unknown VM: err = %v", err)
	}
	if _, err := c.Migrate("a", other); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("full target: err = %v, want ErrNoHostFits", err)
	}
	if _, err := c.Migrate("a", nil); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("full cluster: err = %v, want ErrNoHostFits", err)
	}
	if _, err := c.Migrate("a", hostOf(c, d)); err == nil {
		t.Fatal("migrating to the same host accepted")
	}

	// A VM mid-blackout cannot be moved again.
	c2 := NewSharded(twoHostConfig())
	if _, err := c2.Place(vmSpec("m", 2, 10)); err != nil {
		t.Fatal(err)
	}
	c2.Start()
	if _, err := c2.Migrate("m", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Migrate("m", nil); !errors.Is(err, ErrMigrating) {
		t.Fatalf("migrating VM: err = %v, want ErrMigrating", err)
	}
}

func TestRebalance(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Policy = BestFit // pack everything onto one host first
	c := NewSharded(cfg)
	for i := 0; i < 4; i++ {
		if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 8, 10*4)); err != nil { // 0.2 each
			t.Fatal(err)
		}
	}
	h0, h1 := c.Hosts[0], c.Hosts[1]
	if h0.ReservedBandwidth() < 0.8 && h1.ReservedBandwidth() < 0.8 {
		t.Fatalf("best-fit did not consolidate: %.2f / %.2f",
			h0.ReservedBandwidth(), h1.ReservedBandwidth())
	}
	c.Start()
	c.Run(simtime.Second, 1)
	// Two moves balance the four VMs 2/2. Each move's blackout counts as
	// inbound load on host1 at once; without that, host1 would still read
	// empty and the rebalancer would drain a third VM onto it.
	if moves := c.Rebalance(0.3); moves != 2 {
		t.Fatalf("rebalance made %d moves, want 2", moves)
	}
	if again := c.Rebalance(0.3); again != 0 {
		t.Fatalf("second rebalance during the blackouts made %d more moves", again)
	}
	c.Run(simtime.Second, 1) // let blackouts finish
	gap := h0.ReservedBandwidth() - h1.ReservedBandwidth()
	if gap < 0 {
		gap = -gap
	}
	if gap > 0.3 {
		t.Fatalf("still unbalanced: %.2f vs %.2f", h0.ReservedBandwidth(), h1.ReservedBandwidth())
	}
}

func TestPolicyString(t *testing.T) {
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" ||
		WorstFit.String() != "worst-fit" || Policy(9).String() == "" {
		t.Fatal("Policy.String wrong")
	}
}

func TestDuplicatePlacementRejected(t *testing.T) {
	c := NewSharded(twoHostConfig())
	if _, err := c.Place(vmSpec("dup", 1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(vmSpec("dup", 1, 10)); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestMigrationCleansUpSourceHost: repeated migrations must not leak VCPUs
// or VMs on the source hosts.
func TestMigrationCleansUpSourceHost(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	if _, err := c.Place(vmSpec("pingpong", 3, 10)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 6; i++ {
		c.Run(simtime.Second, 1)
		if _, err := c.Migrate("pingpong", nil); err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
		c.Run(simtime.Second, 1)
	}
	for _, h := range c.Hosts {
		vms := len(h.Sys.Host.VMs())
		vcpus := len(h.Sys.Host.VCPUs())
		if vms > 1 || vcpus > 1 {
			t.Fatalf("%s leaks: %d VMs, %d VCPUs after 6 migrations", h.Name, vms, vcpus)
		}
	}
	d, _ := c.Lookup("pingpong")
	if d.Migrations != 6 {
		t.Fatalf("migrations = %d", d.Migrations)
	}
	// The VM still makes progress.
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Second, 1)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after ping-pong migrations")
	}
}

// Property: random placement and migration churn never overcommits a host,
// never loses a VM, and every surviving VM keeps making progress.
func TestQuickClusterChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := twoHostConfig()
		cfg.Hosts = 2 + rng.Intn(2)
		cfg.PCPUs = 2
		cfg.Seed = seed
		cfg.Policy = Policy(rng.Intn(3))
		c := NewSharded(cfg)
		placed := 0
		for i := 0; i < 6; i++ {
			s := vmSpec(fmt.Sprintf("vm%d", i), 2+rng.Int63n(5), 10+rng.Int63n(20))
			if _, err := c.Place(s); err == nil {
				placed++
			}
		}
		if placed == 0 {
			return true
		}
		c.Start()
		for e := 0; e < 10; e++ {
			c.Run(simtime.Duration(200+rng.Int63n(800))*simtime.Millisecond, 1+e%2)
			ds := c.Deployments()
			d := ds[rng.Intn(len(ds))]
			_, _ = c.Migrate(d.Spec.Name, nil) // failures are fine
		}
		c.Run(2*simtime.Second, 1)
		// Invariants.
		for _, h := range c.Hosts {
			if h.ReservedBandwidth() > h.Capacity()+1e-6 {
				t.Logf("seed %d: %s overcommitted %.3f/%.1f", seed, h.Name,
					h.ReservedBandwidth(), h.Capacity())
				return false
			}
		}
		for _, d := range c.Deployments() {
			tk := d.Tasks()[0]
			before := tk.Stats().Completed
			c.Run(simtime.Second, 1)
			if tk.Stats().Completed <= before {
				t.Logf("seed %d: %s stalled after churn\n%s", seed, d.Spec.Name, c.DigestString())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFailHostRecoversVMs(t *testing.T) {
	cfg := twoHostConfig() // 2×4 CPUs, worst-fit, 500ms recovery
	c := NewSharded(cfg)
	// One VM per host (worst-fit spreads them).
	d1, err := c.Place(vmSpec("a", 2, 10)) // 0.2 CPUs
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Place(vmSpec("b", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if d1.HostIndex() == d2.HostIndex() {
		t.Fatal("worst-fit co-located the VMs")
	}
	c.Start()
	c.Run(simtime.Seconds(2), 1)

	crashed := hostOf(c, d1)
	survivor := hostOf(c, d2)
	affected := c.FailHost(crashed)
	if len(affected) != 1 || affected[0] != d1 {
		t.Fatalf("affected = %v", affected)
	}
	// The failover is a blackout in flight toward the survivor.
	if !crashed.Failed() || !d1.Migrating() || d1.Guest() != nil || d1.Pending() {
		t.Fatalf("failure state: host=%v migrating=%v dark=%v pending=%v",
			crashed.Failed(), d1.Migrating(), d1.Guest() == nil, d1.Pending())
	}
	// Failing twice is a no-op.
	if again := c.FailHost(crashed); again != nil {
		t.Fatalf("second FailHost returned %v", again)
	}

	c.Run(simtime.Seconds(2), 2)
	if d1.Pending() || d1.Migrating() || hostOf(c, d1) != survivor {
		t.Fatalf("vm a not recovered: pending=%v host=%v", d1.Pending(), hostOf(c, d1).Name)
	}
	if d1.Failovers != 1 || d1.Migrations != 0 || d1.BlackoutTotal != cfg.RecoveryDelay {
		t.Fatalf("failover accounting: failovers=%d migrations=%d blackout=%v",
			d1.Failovers, d1.Migrations, d1.BlackoutTotal)
	}
	// The crash cost deadlines (the VM was dark 500ms ≈ 50 periods), but
	// it runs cleanly again on the survivor.
	tk := d1.Tasks()[0]
	missesAfterRecovery := tk.Stats().Missed
	if missesAfterRecovery == 0 {
		t.Fatal("500ms blackout caused no misses")
	}
	c.Run(simtime.Seconds(2), 1)
	if got := tk.Stats().Missed; got != missesAfterRecovery {
		t.Fatalf("still missing after recovery: %d -> %d", missesAfterRecovery, got)
	}
	// The crashed host is empty and excluded from placement.
	if n := len(crashed.Sys.Host.VMs()); n != 0 {
		t.Fatalf("%d VMs left on the crashed host", n)
	}
	if _, err := c.Migrate("b", crashed); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("migrating onto the failed host: err = %v, want ErrNoHostFits", err)
	}
	if _, err := c.Migrate("a", nil); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("policy migration with only a failed host left: err = %v, want ErrNoHostFits", err)
	}
}

func TestFailHostNoCapacityThenRestore(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	// heavySpec builds a VM from n 0.9-utilization tasks, each filling
	// most of one VCPU (0.95 reserved with the 500µs slack).
	heavySpec := func(name string, n int) VMSpec {
		s := VMSpec{Name: name, VCPUs: n}
		for i := 0; i < n; i++ {
			s.Tasks = append(s.Tasks, TaskSpec{
				Name: fmt.Sprintf("%s-rta%d", name, i), Kind: task.Periodic,
				Params: task.Params{Slice: ms(9), Period: ms(10)},
			})
		}
		return s
	}
	// host0: the 1.8-CPU victim; host1: 2.7 CPUs of filler, leaving only
	// ~1.15 CPUs of surviving capacity — not enough to recover the victim.
	big, err := c.Place(heavySpec("big", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(heavySpec("filler", 3)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1), 1)

	h0 := c.Hosts[0]
	if affected := c.FailHost(h0); len(affected) != 1 || affected[0] != big {
		t.Fatalf("affected = %v", affected)
	}
	c.Run(simtime.Seconds(2), 2) // recovery delay passes, nowhere to go
	if !big.Pending() {
		t.Fatal("1.8-CPU VM recovered without capacity")
	}
	if _, err := c.Migrate("big", nil); !errors.Is(err, ErrMigrating) {
		t.Fatalf("migrating a pending VM: err = %v, want ErrMigrating", err)
	}

	c.RestoreHost(h0)
	if big.Pending() {
		t.Fatal("restore did not retry the pending VM")
	}
	if hostOf(c, big) != h0 || big.Failovers != 1 {
		t.Fatalf("recovered on %s with %d failovers", hostOf(c, big).Name, big.Failovers)
	}
	c.Run(simtime.Seconds(2), 1)
	// Clean run after restoration: misses stop accumulating.
	tk := big.Tasks()[0]
	before := tk.Stats().Missed
	c.Run(simtime.Seconds(1), 1)
	if got := tk.Stats().Missed; got != before {
		t.Fatalf("missing after restore: %d -> %d", before, got)
	}
	// Restoring a live host is a no-op.
	c.RestoreHost(h0)
}

// TestMigrateToHostThatFails crashes a migration's target while the
// handoff is already queued there: the arrival must be re-addressed to a
// live fallback instead of deploying onto the corpse.
func TestMigrateToHostThatFails(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Hosts = 3
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1), 1)

	src := hostOf(c, d)
	var target *ShardHost
	for _, h := range c.Hosts {
		if h != src {
			target = h
			break
		}
	}
	if _, err := c.Migrate("a", target); err != nil {
		t.Fatal(err)
	}
	c.Run(20*simtime.Millisecond, 2) // the handoff now sits in target's queue
	if affected := c.FailHost(target); len(affected) != 0 {
		t.Fatalf("the in-flight VM is not resident on the target, yet affected = %v", affected)
	}
	c.Run(simtime.Seconds(2), 2)
	if d.Pending() || d.Migrating() {
		t.Fatal("VM stuck dark despite spare capacity")
	}
	if hostOf(c, d) == target || hostOf(c, d).Failed() {
		t.Fatalf("VM landed on the failed host %s", hostOf(c, d).Name)
	}
	if d.Migrations != 1 || d.BlackoutTotal <= c.downtime(d) {
		t.Fatalf("migrations=%d blackout=%v: the re-addressing hop must extend the %v blackout",
			d.Migrations, d.BlackoutTotal, c.downtime(d))
	}
	tk := d.Tasks()[0]
	before := tk.Stats().Missed
	c.Run(simtime.Seconds(1), 1)
	if got := tk.Stats().Missed; got != before {
		t.Fatalf("missing after fallback: %d -> %d", before, got)
	}
}

// TestMigrateToHostThatFailsNoFallback crashes a migration's target when
// no survivor has room: the VM goes pending on arrival and RestoreHost
// redeploys it.
func TestMigrateToHostThatFailsNoFallback(t *testing.T) {
	c := NewSharded(twoHostConfig())
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1), 1)
	src, target := hostOf(c, d), c.Hosts[1-d.HostIndex()]
	if _, err := c.Migrate("a", target); err != nil {
		t.Fatal(err)
	}
	c.FailHost(src) // empty now: the VM is in flight
	c.FailHost(target)
	c.Run(simtime.Seconds(1), 2)
	if !d.Pending() || d.Migrations != 1 {
		t.Fatalf("pending=%v migrations=%d, want a completed-but-pending migration", d.Pending(), d.Migrations)
	}
	c.RestoreHost(src)
	if d.Pending() || hostOf(c, d) != src || d.Failovers != 1 {
		t.Fatalf("restore: pending=%v host=%s failovers=%d", d.Pending(), hostOf(c, d).Name, d.Failovers)
	}
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Seconds(1), 1)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after restore")
	}
}

func TestMigrateRejectsPendingVM(t *testing.T) {
	c := NewSharded(twoHostConfig())
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1), 1)
	c.FailHost(hostOf(c, d))
	if _, err := c.Migrate("a", nil); !errors.Is(err, ErrMigrating) {
		t.Fatalf("migrating a failing-over VM: err = %v", err)
	}
}

// Property: under random crashes, restores and migrations, no VM is ever
// lost — every deployment is either running on a live host, in a
// blackout, or explicitly pending — hosts are never overcommitted, and
// once the cluster heals, every VM makes progress again.
func TestQuickFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := twoHostConfig()
		cfg.Hosts = 3
		cfg.PCPUs = 2
		cfg.Seed = seed
		cfg.Policy = Policy(rng.Intn(3))
		c := NewSharded(cfg)
		for i := 0; i < 5; i++ {
			s := vmSpec(fmt.Sprintf("vm%d", i), 1+rng.Int63n(4), 10+rng.Int63n(20))
			_, _ = c.Place(s) // rejections are fine
		}
		if len(c.Deployments()) == 0 {
			return true
		}
		c.Start()
		for e := 0; e < 12; e++ {
			c.Run(simtime.Duration(100+rng.Int63n(700))*simtime.Millisecond, 1+e%2)
			switch rng.Intn(3) {
			case 0:
				c.FailHost(c.Hosts[rng.Intn(len(c.Hosts))])
			case 1:
				c.RestoreHost(c.Hosts[rng.Intn(len(c.Hosts))])
			case 2:
				ds := c.Deployments()
				d := ds[rng.Intn(len(ds))]
				_, _ = c.Migrate(d.Spec.Name, nil)
			}
			// Standing invariants, checked at every step.
			for _, h := range c.Hosts {
				if h.ReservedBandwidth() > h.Capacity()+1e-6 {
					t.Logf("seed %d: %s overcommitted", seed, h.Name)
					return false
				}
				if h.Failed() && len(h.Sys.Host.VMs()) != 0 {
					t.Logf("seed %d: %d VMs on failed %s", seed,
						len(h.Sys.Host.VMs()), h.Name)
					return false
				}
			}
			for _, d := range c.Deployments() {
				if d.Guest() != nil && (d.Migrating() || hostOf(c, d).Failed()) {
					t.Logf("seed %d: %s runs while migrating=%v on failed=%v", seed,
						d.Spec.Name, d.Migrating(), hostOf(c, d).Failed())
					return false
				}
			}
		}
		// Heal the cluster and let in-flight blackouts drain.
		for _, h := range c.Hosts {
			c.RestoreHost(h)
		}
		c.Run(3*simtime.Second, 1)
		for _, d := range c.Deployments() {
			if d.Pending() || d.Migrating() {
				t.Logf("seed %d: %s still dark after full restore", seed, d.Spec.Name)
				return false
			}
			tk := d.Tasks()[0]
			before := tk.Stats().Completed
			c.Run(simtime.Second, 1)
			if tk.Stats().Completed <= before {
				t.Logf("seed %d: %s stopped making progress", seed, d.Spec.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// coordinatedWorld drives a 3-host world through every coordinator
// operation between runs — Migrate, Rebalance, FailHost with a failover
// and a blackout in flight toward the crashed host, RestoreHost — with a
// remote client whose requests chase the VM through the forwarding chain.
func coordinatedWorld(t *testing.T, seed uint64, groups int) *Sharded {
	t.Helper()
	cfg := twoHostConfig()
	cfg.Hosts = 3
	cfg.PCPUs = 2
	cfg.Seed = seed
	cfg.Policy = BestFit
	c := NewSharded(cfg)
	for i := 0; i < 4; i++ {
		if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 3, 10)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := c.Place(VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
		{Name: "req", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(500), Period: simtime.Millis(5)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddRemoteClient((srv.HostIndex()+1)%cfg.Hosts, srv, 0, cfg.Lookahead,
		dist.Uniform{Lo: simtime.Micros(300), Hi: simtime.Micros(900)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(300*simtime.Millisecond, groups)
	if _, err := c.Migrate("srv", nil); err != nil {
		t.Fatal(err)
	}
	c.Run(200*simtime.Millisecond, groups)
	c.Rebalance(0.1)
	c.Run(10*simtime.Millisecond, groups)
	c.FailHost(c.Hosts[0])
	c.Run(250*simtime.Millisecond, groups) // mid-recovery
	if _, err := c.Migrate("srv", nil); err != nil {
		t.Fatal(err)
	}
	c.FailHost(hostOf(c, srv)) // srv's handoff is in flight toward it
	c.Run(400*simtime.Millisecond, groups)
	c.RestoreHost(c.Hosts[0])
	c.Run(300*simtime.Millisecond, groups)
	for _, h := range c.Hosts {
		c.RestoreHost(h)
	}
	c.Rebalance(0.1)
	c.Run(500*simtime.Millisecond, groups)
	c.Finish()
	return c
}

// TestShardedCoordinatorGroupIdentity pins that coordinator operations
// between runs keep the sharded run's determinism contract: the digest is
// byte-identical at 1, 2 and 4 executor groups.
func TestShardedCoordinatorGroupIdentity(t *testing.T) {
	base := coordinatedWorld(t, 42, 1)
	migs, fails := 0, 0
	for _, d := range base.Deployments() {
		migs += d.Migrations
		fails += d.Failovers
	}
	var fwd uint64
	for _, h := range base.Hosts {
		fwd += h.Agent().Forwarded
	}
	if migs == 0 || fails == 0 || fwd == 0 {
		t.Fatalf("degenerate world: migrations=%d failovers=%d forwarded=%d\n%s",
			migs, fails, fwd, base.DigestString())
	}
	want := base.DigestString()
	for _, g := range []int{2, 4} {
		if got := coordinatedWorld(t, 42, g).DigestString(); got != want {
			t.Errorf("groups=%d digest differs from sequential:\n--- groups=1 ---\n%s--- groups=%d ---\n%s",
				g, want, g, got)
		}
	}
}

// TestClusterDeterminism: identical seeds reproduce identical outcomes
// bit-for-bit, including through migrations, a crash and a recovery.
func TestClusterDeterminism(t *testing.T) {
	run := func() string {
		cfg := twoHostConfig()
		cfg.Hosts = 3
		cfg.PCPUs = 2
		cfg.Seed = 42
		c := NewSharded(cfg)
		for i := 0; i < 4; i++ {
			if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 3, 10)); err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		c.Run(simtime.Second, 1)
		_, _ = c.Migrate("vm1", nil)
		c.Run(simtime.Second, 1)
		c.FailHost(c.Hosts[0])
		c.Run(simtime.Second, 1)
		c.RestoreHost(c.Hosts[0])
		c.Run(simtime.Second, 1)
		c.Finish()
		out := c.DigestString()
		for _, d := range c.Deployments() {
			st := d.Tasks()[0].Stats()
			out += fmt.Sprintf("%s@%s rel=%d done=%d miss=%d ab=%d fo=%d\n",
				d.Spec.Name, hostOf(c, d).Name, st.Released, st.Completed, st.Missed,
				st.Abandoned, d.Failovers)
		}
		for _, h := range c.Hosts {
			out += fmt.Sprintf("%s bw=%.6f mig=%d\n",
				h.Name, h.ReservedBandwidth(), h.Sys.Host.Overhead.Migrations)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic cluster run:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// depRow is the per-deployment outcome compared between a cold run and a
// forked run: placement, failover accounting and task job statistics.
type depRow struct {
	Name       string
	Host       string
	Migrations int
	Failovers  int
	Blackout   simtime.Duration
	Pending    bool
	Stats      []task.Stats
}

func clusterRows(c *Sharded) []depRow {
	var rows []depRow
	for _, d := range c.Deployments() {
		r := depRow{
			Name:       d.Spec.Name,
			Host:       hostOf(c, d).Name,
			Migrations: d.Migrations,
			Failovers:  d.Failovers,
			Blackout:   d.BlackoutTotal,
			Pending:    d.Pending(),
		}
		for _, t := range d.Tasks() {
			r.Stats = append(r.Stats, t.Stats())
		}
		rows = append(rows, r)
	}
	return rows
}

// TestClusterForkDeterminism forks a cluster while a host failure's
// recovery is still in flight — the fork boundary cuts between the
// failure and the failover — and pins that the forked future is
// bit-identical to the uninterrupted run. The cut is taken twice: at the
// crash instant, with the failover handoffs still in the source outbox,
// and 100ms later, with them queued on the targets.
func TestClusterForkDeterminism(t *testing.T) {
	for _, into := range []simtime.Duration{0, 100 * simtime.Millisecond} {
		build := func() *Sharded {
			cfg := twoHostConfig()
			cfg.Hosts = 3
			cfg.PCPUs = 2
			cfg.Seed = 5
			c := NewSharded(cfg)
			for i := 0; i < 4; i++ {
				if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 2, 10+int64(i)*5)); err != nil {
					t.Fatalf("place vm%d: %v", i, err)
				}
			}
			c.Start()
			c.Run(simtime.Second, 1)
			d, ok := c.Lookup("vm0")
			if !ok {
				t.Fatal("vm0 missing")
			}
			if affected := c.FailHost(hostOf(c, d)); len(affected) == 0 {
				t.Fatal("failing vm0's host affected no deployments")
			}
			if into > 0 {
				c.Run(into, 1)
			}
			return c
		}

		cold := build()
		cold.Run(2*simtime.Second, 1)
		cold.Finish()
		want := clusterRows(cold)

		base := build()
		fc, _, err := base.Fork()
		if err != nil {
			t.Fatalf("cluster fork: %v", err)
		}
		fc.Run(2*simtime.Second, 2)
		fc.Finish()
		got := clusterRows(fc)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fork %v after the crash diverges from the cold run:\n fork: %+v\n cold: %+v", into, got, want)
		}
		if fc.DigestString() != cold.DigestString() {
			t.Fatalf("fork %v after the crash: digests differ:\n--- fork ---\n%s--- cold ---\n%s",
				into, fc.DigestString(), cold.DigestString())
		}
		failovers := 0
		for _, r := range got {
			failovers += r.Failovers
		}
		if failovers == 0 {
			t.Fatal("no failovers happened — the in-flight recovery never crossed the fork")
		}
		if now := base.Set.Now(); now != simtime.Time(simtime.Second+into) {
			t.Errorf("base cluster advanced to %v by running its fork", now)
		}
	}
}

// TestMigrateThroughTwoFailedHosts crashes a migration's target and then
// the fallback it was re-addressed to, both while the handoff is still in
// flight: the handoff must follow the forwarding chain hop by hop (every
// hop on a declared edge) and land on a live host.
func TestMigrateThroughTwoFailedHosts(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Hosts = 4
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1), 1)
	if _, err := c.Migrate("a", c.Hosts[1]); err != nil {
		t.Fatal(err)
	}
	c.Run(20*simtime.Millisecond, 2)
	c.FailHost(c.Hosts[1])
	first := hostOf(c, d)
	if first == c.Hosts[1] {
		t.Fatal("no fallback chosen for the in-flight VM")
	}
	c.FailHost(first)
	second := hostOf(c, d)
	if second == first || second.Failed() {
		t.Fatalf("second fallback %s", second.Name)
	}
	c.Run(simtime.Seconds(1), 2)
	if d.Pending() || d.Migrating() || hostOf(c, d) != second {
		t.Fatalf("pending=%v migrating=%v host=%s, want running on %s",
			d.Pending(), d.Migrating(), hostOf(c, d).Name, second.Name)
	}
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Seconds(1), 1)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after two re-addressed hops")
	}
}

// TestPendingVMForwardingTerminates is the regression test for a
// forwarding cycle: a VM that went host0 → host1 → host0 left host0's
// entry pointing at host1 and host1's at host0, so once the VM went
// pending on host0 every request bounced between the two forever. A move
// now clears the target's stale entry, and an arrival clears its own.
func TestPendingVMForwardingTerminates(t *testing.T) {
	cfg := twoHostConfig()
	cfg.Hosts = 3
	c := NewSharded(cfg)
	d, err := c.Deploy(0, VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
		{Name: "req", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(500), Period: simtime.Millis(5)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.AddRemoteClient(2, d, 0, cfg.Lookahead, dist.Constant{D: simtime.Millis(1)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(100*simtime.Millisecond, 1)
	if _, err := c.Migrate("srv", c.Hosts[1]); err != nil {
		t.Fatal(err)
	}
	c.Run(200*simtime.Millisecond, 1)
	c.FailHost(c.Hosts[2]) // empty; its client keeps sending
	if _, err := c.Migrate("srv", c.Hosts[0]); err != nil {
		t.Fatal(err)
	}
	c.FailHost(c.Hosts[1])
	c.FailHost(c.Hosts[0]) // srv is in flight here and no survivor is left
	c.Run(2*simtime.Second, 2)
	if !d.Pending() {
		t.Fatalf("srv should be pending: migrating=%v dark=%v", d.Migrating(), d.Guest() == nil)
	}
	var fwd uint64
	for _, h := range c.Hosts {
		fwd += h.Agent().Forwarded
	}
	if fwd > uint64(cl.Sent()) {
		t.Fatalf("%d forwards for %d requests: requests are cycling between hosts", fwd, cl.Sent())
	}
}

// TestMigrateCountsReservationSlack pins that fit is judged on the VM's
// real reservation, budget slack included, not on its tasks' bandwidth:
// a target with room for the estimate but not for the reservation would
// refuse the VM at the end of the blackout and leave it pending.
func TestMigrateCountsReservationSlack(t *testing.T) {
	cfg := twoHostConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	d, err := c.Deploy(0, vmSpec("a", 2, 10)) // 0.2 of tasks, 0.25 reserved
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(1, vmSpec("filler", 76, 100)); err != nil { // 0.765 reserved
		t.Fatal(err)
	}
	c.Start()
	c.Run(100*simtime.Millisecond, 1)
	free := c.Hosts[1].Capacity() - c.Hosts[1].ReservedBandwidth()
	if bw := d.Spec.Bandwidth(); free < bw || free >= d.Guest().AllocatedBandwidth() {
		t.Fatalf("fixture: host1 has %.3f free, want between %.3f and %.3f",
			free, bw, d.Guest().AllocatedBandwidth())
	}
	if _, err := c.Migrate("a", c.Hosts[1]); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("err = %v, want ErrNoHostFits", err)
	}
}
