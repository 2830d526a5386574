package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"rtvirt/internal/cluster"
	"rtvirt/internal/dist"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// The -pdes benchmark: a memcached-style cluster — every host serves two
// cache VMs whose sporadic tasks are driven by remote clients on two
// other hosts, next to a periodic RT task and a background hog — with a
// rack-structured network: hosts come in racks of 8, and a client's
// request latency depends on how far its rack is from the cache's
// (120/180/260 µs for same/adjacent/distant racks).
//
// The sweep measures two things:
//
//   - Windows. Every declared link contributes its real latency to the
//     conservative window bounds, so windows stretch to the topology's
//     cycle lengths instead of the 19 µs global floor. BENCH_6's recorded
//     window count is the historical single-lookahead reference for the
//     same hosts/VMs/seconds configuration (BENCH_7 also recorded that
//     protocol re-run on this exact world).
//   - Determinism. Executor groups 1/2/4/8 must produce byte-identical
//     cluster digests. Any divergence fails the process.
type pdesGroupRow struct {
	Groups       int     `json:"groups"`
	WallSeconds  float64 `json:"wall_seconds"`
	Speedup      float64 `json:"speedup_vs_groups1"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type pdesLinkDelays struct {
	SameRackUS     float64 `json:"same_rack_us"`
	AdjacentRackUS float64 `json:"adjacent_rack_us"`
	DistantRackUS  float64 `json:"distant_rack_us"`
}

type pdesReport struct {
	Bench             string         `json:"bench"`
	GoVersion         string         `json:"go_version"`
	Cores             int            `json:"cores"`
	Hosts             int            `json:"hosts"`
	VMs               int            `json:"vms"`
	Clients           int            `json:"clients"`
	SimulatedSeconds  int64          `json:"simulated_seconds"`
	LookaheadUS       float64        `json:"lookahead_us"`
	RackSize          int            `json:"rack_size"`
	LinkDelays        pdesLinkDelays `json:"link_delays"`
	Requests          uint64         `json:"requests"`
	Events            uint64         `json:"events"`
	WindowsPerEdge    uint64         `json:"windows_per_edge"`
	WindowsBench6     uint64         `json:"windows_bench6_reference"`
	ReductionVsBench6 float64        `json:"window_reduction_vs_bench6"`
	Migrations        int            `json:"migrations"`
	Groups            []pdesGroupRow `json:"groups_sweep"`
	DigestIdentical   bool           `json:"digest_identical"`
	Note              string         `json:"note"`
}

// bench6Windows is the window count BENCH_6.json recorded for this exact
// configuration (64 hosts, 128 VMs, 2 simulated seconds, 19 µs
// lookahead) under the PR-7 single-global-lookahead protocol.
const bench6Windows = 103404

// pdesRackSize groups hosts into racks; a client's network delay to a
// cache depends only on the rack distance.
const pdesRackSize = 8

func pdesLinkDelay(src, dst int) simtime.Duration {
	rs, rd := src/pdesRackSize, dst/pdesRackSize
	switch d := rs - rd; {
	case d == 0:
		return simtime.Micros(120)
	case d == 1 || d == -1:
		return simtime.Micros(180)
	default:
		return simtime.Micros(260)
	}
}

// buildPDESBench assembles the hosts-sized cluster. Two cache VMs per
// host, each sporadic server fed by clients one and two hosts over at
// the rack-distance link delay; eight planned migrations ripple through
// the first hosts.
func buildPDESBench(hosts int) (*cluster.Sharded, []*cluster.RemoteClient) {
	cfg := cluster.DefaultShardedConfig()
	cfg.Hosts = hosts
	cfg.PCPUs = 4
	cfg.Seed = 1
	cfg.LinkDelay = pdesLinkDelay
	c := cluster.NewSharded(cfg)
	var clients []*cluster.RemoteClient
	for h := 0; h < hosts; h++ {
		for v := 0; v < 2; v++ {
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
				log.Fatalf("pdes bench deploy %s: %v", spec.Name, err)
			}
			for _, src := range []int{(h + 1) % hosts, (h + 2) % hosts} {
				if src == h {
					continue // degenerate only when hosts < 3
				}
				cl, err := c.AddRemoteClient(src, d, 0, pdesLinkDelay(src, h),
					dist.Uniform{Lo: simtime.Micros(150), Hi: simtime.Micros(500)},
					dist.Uniform{Lo: simtime.Micros(20), Hi: simtime.Micros(80)}, 0)
				if err != nil {
					log.Fatalf("pdes bench client for %s: %v", spec.Name, err)
				}
				clients = append(clients, cl)
			}
		}
	}
	nmig := 8
	if nmig > hosts-1 {
		nmig = hosts - 1
	}
	for k := 0; k < nmig; k++ {
		d, _ := c.Lookup(fmt.Sprintf("cache%d-0", k))
		at := simtime.Time(0).Add(simtime.Millis(int64(100 * (k + 1))))
		if err := c.PlanMigration(at, d, (k+1)%hosts); err != nil {
			log.Fatalf("pdes bench migration %d: %v", k, err)
		}
	}
	return c, clients
}

// runPDES sweeps executor group counts over the sharded cluster under
// per-edge window bounds, checks digest identity, and writes the report
// to outPath (BENCH_7.json by default).
func runPDES(outPath string, hosts int, seconds int64) {
	if hosts < 3 {
		log.Fatalf("pdes bench needs at least 3 hosts, got %d", hosts)
	}
	if seconds <= 0 {
		seconds = 2
	}
	total := simtime.Duration(seconds) * simtime.Second
	fmt.Printf("Sharded conservative-PDES sweep — %d hosts, %d simulated seconds, %d cores\n",
		hosts, seconds, runtime.NumCPU())

	r := pdesReport{
		Bench:            "sharded conservative-PDES cluster: per-edge lookahead topology sweep",
		GoVersion:        runtime.Version(),
		Cores:            runtime.NumCPU(),
		Hosts:            hosts,
		SimulatedSeconds: seconds,
		RackSize:         pdesRackSize,
		LinkDelays:       pdesLinkDelays{SameRackUS: 120, AdjacentRackUS: 180, DistantRackUS: 260},
		WindowsBench6:    bench6Windows,
		DigestIdentical:  true,
		Note: "walls measured on this machine; speedup is bounded by physical cores " +
			"(a 1-core container shows ~1x at every group count by construction — " +
			"the digest-identity column is the determinism contract, the CI smoke " +
			"re-runs the sweep on multi-core runners). windows_bench6_reference is " +
			"the PR-7 global-lookahead run on the same hosts/VMs/seconds " +
			"configuration.",
	}

	var baseDigest string
	var baseWall float64
	for _, groups := range []int{1, 2, 4, 8} {
		c, clients := buildPDESBench(hosts)
		first := baseDigest == ""
		if first {
			r.VMs = len(c.Deployments())
			r.Clients = len(clients)
			r.LookaheadUS = float64(c.Cfg.Lookahead) / float64(simtime.Microsecond)
		}
		c.Start()
		start := time.Now()
		c.Run(total, groups)
		wall := time.Since(start).Seconds()
		c.Finish()

		digest := c.DigestString()
		if first {
			baseDigest = digest
			r.Events = c.Set.EventsFired()
			r.WindowsPerEdge = c.Set.Windows()
			for _, cl := range clients {
				r.Requests += uint64(cl.Sent())
			}
			for _, d := range c.Deployments() {
				r.Migrations += d.Migrations
			}
		} else if digest != baseDigest {
			r.DigestIdentical = false
			fmt.Printf("  groups=%d DIGEST DIVERGED from the baseline run\n", groups)
		}
		if groups == 1 {
			baseWall = wall
		}
		row := pdesGroupRow{
			Groups:       groups,
			WallSeconds:  wall,
			Speedup:      baseWall / wall,
			EventsPerSec: float64(r.Events) / wall,
		}
		r.Groups = append(r.Groups, row)
		fmt.Printf("  groups=%d  wall %7.3f s  speedup %4.2fx  %.2fM events/s\n",
			groups, row.WallSeconds, row.Speedup, row.EventsPerSec/1e6)
	}

	if r.WindowsPerEdge > 0 {
		r.ReductionVsBench6 = float64(bench6Windows) / float64(r.WindowsPerEdge)
	}

	fmt.Printf("  %d VMs, %d clients, %d requests, %d events, %d migrations; digests identical: %v\n",
		r.VMs, r.Clients, r.Requests, r.Events, r.Migrations, r.DigestIdentical)
	fmt.Printf("  windows: per-edge %d, BENCH_6 reference %d (%.1fx fewer)\n",
		r.WindowsPerEdge, r.WindowsBench6, r.ReductionVsBench6)
	if !r.DigestIdentical {
		log.Fatal("pdes bench: executor group counts disagreed — determinism contract broken")
	}

	buf, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", outPath)
}
