package quick

import (
	"fmt"
	"strings"

	"rtvirt/internal/check"
	"rtvirt/internal/cluster"
	"rtvirt/internal/dist"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// The PDES identity oracle: every generated scenario is replicated onto a
// small sharded cluster and advanced under each executor group count in
// Config.Shards; all runs must produce byte-identical cluster digests.
// This turns the quickcheck corpus into a randomized probe of the
// conservative-window machinery — mailbox ordering, barrier placement,
// migration handoff — on worlds nobody hand-crafted. Every host of the
// replica also carries the per-host oracle suite that check.Attach arms
// for its scheduler (budget, bandwidth, admission and parity under the
// sharded default RTVirt stack; EDF order too under RT-Xen), so migration
// teardown and redeploy are checked against the same invariants as a
// single-host run.

// DefaultShards is the executor-group axis the PDES oracle compares. The
// first entry is the baseline.
var DefaultShards = []int{1, 2, 4}

// pdesHosts is the sharded cluster's size: three hosts keeps one full
// scenario replica per host affordable while still exercising forwarding
// chains that span more than one edge.
const pdesHosts = 3

// pdesClientDelay derives a deterministic pseudo-random network delay for
// the client driving task ti of VM vi's host-h replica: 1–4× the global
// lookahead (splitmix64 finalizer over the case seed and coordinates).
// Each client edge therefore declares its own lookahead, so the oracle
// also probes the per-edge window bounds on random heterogeneous
// topologies.
func pdesClientDelay(lookahead simtime.Duration, seed uint64, h, vi, ti int) simtime.Duration {
	z := seed + uint64(h+1)*0x9E3779B97F4A7C15 +
		uint64(vi+1)*0xBF58476D1CE4E5B9 + uint64(ti+1)*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return lookahead * simtime.Duration(1+z%4)
}

// buildPDES replicates sc's VMs onto each host of a fresh sharded
// cluster (names suffixed with the host), drives every sporadic task
// from a remote client on the next host, and plans one live migration at
// half time. Periodic and background tasks run under the cluster's own
// release machinery. Server-style reservations have no sharded
// counterpart, so those VMs deploy as plain vcpus-style guests. The
// oracle suite is attached to every host before the first deploy; the
// suites come back in host order.
func buildPDES(sc scenario.Scenario, seed uint64) (*cluster.Sharded, []*check.Suite, error) {
	cfg := cluster.DefaultShardedConfig()
	cfg.Hosts = pdesHosts
	cfg.PCPUs = sc.PCPUs
	if cfg.PCPUs <= 0 {
		cfg.PCPUs = 1
	}
	cfg.Seed = seed
	cfg.MigrationDowntime = simtime.Millis(5)
	cfg.MigrationPerBW = simtime.Millis(2)
	if sc.Costs != nil {
		// Thread generated cost overrides (including distribution-valued
		// terms) into every shard; per-shard cost streams derive from the
		// shard seed, so group-count invariance still holds.
		cfg.System.Costs = sc.Costs.CostModel()
	}
	c := cluster.NewSharded(cfg)
	suites := make([]*check.Suite, len(c.Hosts))
	for i, h := range c.Hosts {
		suites[i] = check.Attach(h.Sys, check.Opts{})
	}
	total := simtime.Duration(sc.Seconds) * simtime.Second
	for h := 0; h < cfg.Hosts; h++ {
		for vi, vm := range sc.VMs {
			vcpus := vm.VCPUs
			if vcpus <= 0 {
				vcpus = 1
			}
			spec := cluster.VMSpec{Name: fmt.Sprintf("%s-h%d", vm.Name, h), VCPUs: vcpus}
			for _, ts := range vm.Tasks {
				ct := cluster.TaskSpec{
					Name: ts.Name,
					Params: task.Params{
						Slice:  simtime.Micros(ts.SliceUS),
						Period: simtime.Micros(ts.PeriodUS),
					},
					Phase: simtime.Millis(ts.PhaseMS),
				}
				switch ts.Kind {
				case "", "periodic":
					ct.Kind = task.Periodic
				case "sporadic":
					ct.Kind = task.Sporadic
				case "background", "evader":
					// Evaders replicate as plain background load: their
					// probe/burst driver is single-host machinery, but the
					// task shape still exercises the sharded release path.
					ct.Kind = task.Background
					ct.Params = task.Params{}
				default:
					return nil, nil, fmt.Errorf("quick: pdes: unknown task kind %q", ts.Kind)
				}
				if ts.Adaptive != nil {
					cfg := ts.Adaptive.Config()
					ct.Adaptive = &cfg
				}
				spec.Tasks = append(spec.Tasks, ct)
			}
			d, err := c.Deploy(h, spec)
			if err != nil {
				// Host admission rejected the replica — identically on
				// every host, so skipping keeps the replicas symmetric.
				continue
			}
			for i, ts := range vm.Tasks {
				if ts.Kind != "sporadic" {
					continue
				}
				rate := ts.RateHz
				if rate <= 0 {
					rate = 10
				}
				mean := simtime.Duration(1e9 / rate) // ns between requests
				cl, err := c.AddRemoteClient((h+1)%cfg.Hosts, d, i,
					pdesClientDelay(cfg.Lookahead, seed, h, vi, i),
					dist.Uniform{Lo: mean / 2, Hi: mean + mean/2}, nil, 0)
				if err != nil {
					return nil, nil, fmt.Errorf("quick: pdes client: %w", err)
				}
				if ts.Arrivals != nil {
					// Open-loop production traffic drives the remote
					// stream too — each client clones its own process.
					cl.Proc = ts.Arrivals.Process()
				}
			}
		}
	}
	deps := c.Deployments()
	if len(deps) == 0 {
		return nil, nil, fmt.Errorf("quick: pdes: no VM admitted")
	}
	// One planned migration at half time exercises the cross-host
	// handoff; its admission may legitimately fail on a full target,
	// which is itself deterministic state the digest covers.
	if err := c.PlanMigration(simtime.Time(0).Add(total/2), deps[0],
		(deps[0].HostIndex()+1)%cfg.Hosts); err != nil {
		return nil, nil, fmt.Errorf("quick: pdes migration: %w", err)
	}
	return c, suites, nil
}

// pdesIdentity runs sc's sharded replica under every group count in
// shards. It reports the per-host oracle violations of the first run,
// each prefixed with its host, plus a pdes-identity violation if any
// digest differs from the first.
func pdesIdentity(sc scenario.Scenario, seed uint64, shards []int) ([]check.Violation, error) {
	total := simtime.Duration(sc.Seconds) * simtime.Second
	run := func(groups int) (string, []check.Violation, error) {
		c, suites, err := buildPDES(sc, seed)
		if err != nil {
			return "", nil, err
		}
		c.Start()
		c.Run(total, groups)
		c.Finish()
		var vs []check.Violation
		for i, s := range suites {
			for _, v := range s.Finish() {
				v.Detail = c.Hosts[i].Name + ": " + v.Detail
				vs = append(vs, v)
			}
		}
		return c.DigestString(), vs, nil
	}
	base, vs, err := run(shards[0])
	if err != nil {
		return nil, err
	}
	for _, g := range shards[1:] {
		got, _, err := run(g)
		if err != nil {
			return nil, err
		}
		if got != base {
			return append(vs, check.Violation{
				At:     simtime.Time(0).Add(total),
				Oracle: "pdes-identity",
				Detail: fmt.Sprintf("executor groups=%d digest differs from groups=%d: %s",
					g, shards[0], firstDiffLine(base, got)),
			}), nil
		}
	}
	return vs, nil
}

// firstDiffLine names the first line where two digests part ways.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
