// Command rtvirt-bench regenerates the tables and figures of the RTVirt
// paper's evaluation (§4). Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-versus-measured.
//
// Usage:
//
//	rtvirt-bench -experiment all            # everything (several minutes)
//	rtvirt-bench -experiment fig3           # one experiment
//	rtvirt-bench -experiment fig5a -seconds 30
//	rtvirt-bench -experiment attacks -out results/
//
// Experiments: fig1, table1, table2, fig3, sporadic, table3, fig4,
// table4, fig5a, fig5b, table5, table6, ablations, io, surge, loadsteps,
// bisect, robustness, fidelity, attacks, quickcheck, all.
//
// Machine-readable artifacts (CSV series and JSON records, e.g.
// fig3.csv, fidelity.json, attacks.json) are written only into the -out
// directory; without -out the command writes no file and prints to
// standard output alone.
//
// -experiment quickcheck runs the randomized invariant harness
// (internal/check/quick): -n scenarios per stack, seeded by -seed; any
// violation is shrunk to a minimal reproducer, exported with -out, and
// fails the process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rtvirt"
	"rtvirt/internal/report"
	"rtvirt/internal/runner"
)

// out is the optional artifact directory (-out flag); nil disables export.
var out *report.Dir

func main() {
	var (
		exp      = flag.String("experiment", "all", "which experiment to run (fig1, table1, table2, fig3, sporadic, table3, fig4, table4, fig5a, fig5b, table5, table6, ablations, io, surge, loadsteps, bisect, robustness, fidelity, attacks, quickcheck, all)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		seconds  = flag.Int64("seconds", 0, "override run length in simulated seconds (0 = per-experiment default)")
		outDir   = flag.String("out", "", "write machine-readable artifacts (CSV/JSON) to this directory")
		runs     = flag.Int("runs", 5, "seeds for -experiment robustness")
		n        = flag.Int("n", 25, "generated scenarios for -experiment quickcheck")
		parallel = flag.Int("parallel", 0, "workers for independent simulations (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
	)
	flag.Parse()
	runner.SetDefault(*parallel)
	if *outDir != "" {
		d, err := report.NewDir(*outDir)
		if err != nil {
			log.Fatal(err)
		}
		out = d
		defer func() {
			if len(out.Written) > 0 {
				fmt.Printf("artifacts written to %s: %s\n", out.Path(), strings.Join(out.Written, ", "))
			}
		}()
	}

	runners := map[string]func(){
		"fig1":       func() { runFig1(*seed, *seconds) },
		"table1":     runTable1,
		"table2":     func() { runTable2(*seed, *seconds) },
		"fig3":       func() { runFig3(*seed, *seconds, false) },
		"sporadic":   func() { runFig3(*seed, *seconds, true) },
		"table3":     runTable3,
		"fig4":       func() { runFig4(*seed, *seconds) },
		"table4":     func() { runTable4(*seed, *seconds) },
		"fig5a":      func() { runFig5(*seed, *seconds, false) },
		"fig5b":      func() { runFig5(*seed, *seconds, true) },
		"table5":     runTable5,
		"table6":     func() { runTable6(*seed, *seconds) },
		"ablations":  func() { runAblations(*seed, *seconds) },
		"io":         func() { runIO(*seed, *seconds) },
		"surge":      func() { runSurge(*seed, *seconds) },
		"loadsteps":  func() { runLoadSteps(*seed, *seconds) },
		"bisect":     func() { runBisect(*seed, *seconds) },
		"robustness": func() { runRobustness(*runs, *seconds) },
		"fidelity":   func() { runFidelity(*seed, *seconds, *parallel) },
		"attacks":    func() { runAttacks(*seed, *seconds) },
		"quickcheck": func() { runQuickcheck(*seed, *n, *seconds) },
	}
	order := []string{"fig1", "table1", "table2", "fig3", "sporadic", "table3",
		"fig4", "table4", "fig5a", "fig5b", "table5", "table6", "ablations", "io",
		"surge", "loadsteps", "bisect", "robustness", "fidelity", "attacks", "quickcheck"}

	name := strings.ToLower(*exp)
	if name == "all" {
		for _, n := range order {
			fmt.Printf("==== %s ====\n", n)
			runners[n]()
			fmt.Println()
		}
		return
	}
	run, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %s or all\n",
			name, strings.Join(order, ", "))
		os.Exit(2)
	}
	run()
}

func secondsOr(s int64, def rtvirt.Duration) rtvirt.Duration {
	if s > 0 {
		return rtvirt.Duration(s) * rtvirt.Second
	}
	return def
}

func runFig1(seed uint64, secs int64) {
	fmt.Println(rtvirt.Figure1(seed, secondsOr(secs, 60*rtvirt.Second)).Render())
}

func runTable1() {
	fmt.Println("Table 1 — periodic RTA groups")
	for _, g := range rtvirt.Table1Groups() {
		fmt.Printf("  %-12s %-12s", g.Name, g.Category)
		for _, p := range g.RTAs {
			fmt.Printf(" %v", p)
		}
		fmt.Printf("  (Σ %.3f CPUs)\n", g.Bandwidth())
	}
}

func runTable2(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFigure3Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	fmt.Println(rtvirt.RenderTable2(rtvirt.Table2(cfg)))
}

func runFig3(seed uint64, secs int64, sporadic bool) {
	cfg := rtvirt.DefaultFigure3Config()
	cfg.Seed = seed
	cfg.Sporadic = sporadic
	cfg.Duration = secondsOr(secs, cfg.Duration)
	if sporadic {
		cfg.Duration = secondsOr(secs, 60*rtvirt.Second)
	}
	rows := rtvirt.Figure3(cfg)
	label := "Figure 3 (periodic)"
	if sporadic {
		label = "§4.2 sporadic RTAs"
	}
	if out != nil && !sporadic {
		if err := out.Figure3(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(label)
	fmt.Println(rtvirt.RenderFigure3(rows))
	var req, xen, virt float64
	for _, r := range rows {
		req += r.RTAReq
		xen += r.RTXenClaimed
		virt += r.RTVirtAllocated
	}
	fmt.Printf("Across groups: RTVirt claims %.1f%% less bandwidth than RT-Xen (paper: 39.4%%)\n",
		100*(1-virt/xen))
}

func runTable3() {
	fmt.Println("Table 3 — video streaming profiles")
	for _, p := range rtvirt.VideoProfiles() {
		fmt.Printf("  %2d fps: %5.1f%% CPU, %v\n", p.FPS, 100*p.Bandwidth, p.Params)
	}
}

func runFig4(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	r := rtvirt.Figure4(cfg)
	if out != nil {
		if err := out.Figure4(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(r.Render())
}

func runTable4(seed uint64, secs int64) {
	rows := rtvirt.Table4(seed, secondsOr(secs, 120*rtvirt.Second))
	if out != nil {
		if err := out.Table4(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderTable4(rows))
}

func runFig5(seed uint64, secs int64, b bool) {
	cfg := rtvirt.DefaultFigure5Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	if b {
		rows := rtvirt.Figure5b(cfg)
		if out != nil {
			if err := out.Figure5("fig5b", rows); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println(rtvirt.RenderFigure5("Figure 5b", rows, cfg.SLO))
		return
	}
	rows := rtvirt.Figure5a(cfg)
	if out != nil {
		if err := out.Figure5("fig5a", rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderFigure5("Figure 5a", rows, cfg.SLO))
}

func runTable5() {
	fmt.Println("Table 5 — scalability RTA groups")
	for _, g := range rtvirt.Table5Groups() {
		fmt.Printf("  %-9s %v\n", g.Name, g.RTAs[0])
	}
}

func runAblations(seed uint64, secs int64) {
	d := secondsOr(secs, 20*rtvirt.Second)
	fmt.Println(rtvirt.RenderAblation("Ablation — DP-WRAP minimum global slice (sub-ms workload)",
		"sched ms/s", rtvirt.AblationMinSlice(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — per-VCPU budget slack (all Table-1 groups)",
		"alloc CPUs", rtvirt.AblationSlack(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — server flavour (Figure-1 workload)",
		"RTA2 resp µs", rtvirt.AblationServerFlavour(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — work-conserving leftover sharing (under-reserved memcached)",
		"mean µs", rtvirt.AblationWorkConserving(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — §6 idle tax (over-claiming idle VM)",
		"newcomer admitted", rtvirt.AblationIdleTax(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — guest scheduler: pEDF vs gEDF (§3.2)",
		"guest sw/s", rtvirt.AblationGuestScheduler(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — forked counterfactual admission (idle-tax world)",
		"newcomer admitted", rtvirt.AblationNewcomerForked(seed, d)))
}

func runSurge(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, 120*rtvirt.Second)
	warm := cfg.Duration / 2
	rows := rtvirt.Figure4Surge(cfg, []int{0, 2, 4, 8}, warm, cfg.Duration-warm)
	fmt.Println(rtvirt.RenderFigure4Surge(rows))
}

func runLoadSteps(seed uint64, secs int64) {
	cfg := rtvirt.DefaultLoadStepConfig()
	cfg.Seed = seed
	if secs > 0 {
		cfg.Duration = rtvirt.Duration(secs) * rtvirt.Second
		cfg.Warmup = cfg.Duration * 2 / 3
	}
	rows := rtvirt.Figure5LoadSteps(cfg)
	fmt.Println(rtvirt.RenderLoadSteps(rows, rtvirt.DefaultFigure5Config().SLO))
}

// runBisect demonstrates the divergence bisector on the two server-based
// stacks: the same three reserved VMs under RT-Xen's deferrable servers
// versus plain two-level EDF's polling servers.
func runBisect(seed uint64, secs int64) {
	horizon := secondsOr(secs, 5*rtvirt.Second)
	build := func(stack rtvirt.Stack) func() *rtvirt.System {
		return func() *rtvirt.System {
			cfg := rtvirt.DefaultConfig(stack)
			cfg.PCPUs = 2
			cfg.Seed = seed
			sys := rtvirt.NewSystem(cfg)
			apps := make([]*rtvirt.RTApp, 0, 4)
			for i := 0; i < 4; i++ {
				g, err := sys.NewServerGuest(fmt.Sprintf("vm%d", i),
					[]rtvirt.Reservation{{Budget: 4 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond}}, 256)
				if err != nil {
					log.Fatal(err)
				}
				// The task period drifts against the server period, so servers
				// regularly idle with leftover budget — the moment deferrable
				// (keep it) and polling (burn it) servers part ways.
				app, err := rtvirt.NewRTApp(g, i, fmt.Sprintf("rta%d", i),
					rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 7 * rtvirt.Millisecond})
				if err != nil {
					log.Fatal(err)
				}
				apps = append(apps, app)
			}
			sys.Start()
			for _, app := range apps {
				app.Start(0)
			}
			return sys
		}
	}
	res, err := rtvirt.Bisect(build(rtvirt.StackRTXen), build(rtvirt.StackTwoLevelEDF),
		horizon, 100*rtvirt.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Bisect — deferrable (rt-xen) vs polling (two-level-edf) servers, same workload")
	fmt.Println(res.Render())
}

func runIO(seed uint64, secs int64) {
	d := secondsOr(secs, 60*rtvirt.Second)
	rows := rtvirt.IOBound(seed, d)
	if out != nil {
		if err := out.IO(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderIO(rows, rtvirt.DefaultIOAppConfig().SLO))
}

func runRobustness(runs int, secs int64) {
	d := secondsOr(secs, 60*rtvirt.Second)
	rows := rtvirt.Robustness(runs, d)
	if out != nil {
		if err := out.Robustness(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderRobustness(rows))
}

func runTable6(seed uint64, secs int64) {
	cfg := rtvirt.DefaultTable6Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	multi := rtvirt.Table6(rtvirt.MultiRTAVMs, cfg)
	single := rtvirt.Table6(rtvirt.SingleRTAVMs, cfg)
	if out != nil {
		if err := out.Table6("table6-multi.csv", multi); err != nil {
			log.Fatal(err)
		}
		if err := out.Table6("table6-single.csv", single); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderTable6(multi))
	fmt.Println(rtvirt.RenderTable6(single))
}

// runFidelity runs the constant-vs-calibrated cost-model ablation: the
// same Figure-3 and Table-6 scheduler comparisons under the paper's flat
// §4 constants and under the distribution-valued calibrated model, with a
// per-row verdict on whether the winner survives the cost noise. With
// -out the record is written as fidelity.json.
func runFidelity(seed uint64, secs int64, parallel int) {
	cfg := rtvirt.DefaultFidelityConfig()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	cfg.Parallel = parallel
	res := rtvirt.FidelityAblation(cfg)
	fmt.Println(rtvirt.RenderFidelity(res))
	if out != nil {
		if err := out.JSON("fidelity.json", &res); err != nil {
			log.Fatal(err)
		}
	}
}

// runAttacks runs the adversarial suite: the tick-evasion attacker's
// obtained/charged/stolen bandwidth under every scheduler stack — the
// exact-accounting schedulers against the deliberately-naive tick-sampled
// Credit double — plus the adaptive controller's convergence trace and
// rejection-backoff counters. With -out the record is written as
// attacks.json.
func runAttacks(seed uint64, secs int64) {
	cfg := rtvirt.DefaultAttackConfig()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	res := rtvirt.Attacks(cfg)
	fmt.Println(rtvirt.RenderAttacks(res))
	if out != nil {
		if err := out.JSON("attacks.json", &res); err != nil {
			log.Fatal(err)
		}
	}
}
