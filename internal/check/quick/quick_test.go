package quick

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/scenario"
)

// TestGenerateAlwaysValid is the generator's own property: every drawn
// scenario passes structural validation and respects the utilization
// envelope that makes deadline misses meaningful.
func TestGenerateAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		sc := Generate(rand.New(rand.NewSource(seed)))
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
		util := 0.0
		for _, vm := range sc.VMs {
			for _, s := range vm.Servers {
				util += float64(s.BudgetUS) / float64(s.PeriodUS)
			}
			if len(vm.Servers) > 0 {
				continue
			}
			for _, ts := range vm.Tasks {
				if ts.Kind == "background" {
					continue
				}
				util += float64(ts.SliceUS) / float64(ts.PeriodUS)
			}
		}
		// The per-task floor of 100µs can nudge a slice slightly past its
		// drawn utilization; allow that much headroom over the cap.
		if limit := utilCap*float64(sc.PCPUs) + 0.05; util > limit {
			t.Fatalf("seed %d: generated utilization %.3f exceeds %.3f", seed, util, limit)
		}
	}
}

// TestQuickPropertyBounded is the deterministic PR-sized property run: a
// handful of generated worlds across all four stacks must produce zero
// invariant violations. Any failure prints its minimized reproducer JSON.
func TestQuickPropertyBounded(t *testing.T) {
	rep := Run(Config{Seed: 1, N: 6})
	reportFailures(t, rep)
	// All four stacks plus the sharded-PDES identity probe.
	want := rep.Cases*len(AllStacks) + rep.Cases
	if rep.Runs != want {
		t.Fatalf("expected %d runs, got %d", want, rep.Runs)
	}
}

// TestQuickSoak is the nightly harness: 100 worlds, every stack, full
// fork-identity probing.
func TestQuickSoak(t *testing.T) {
	if os.Getenv("RTVIRT_SOAK") == "" {
		t.Skip("long soak; set RTVIRT_SOAK=1 to run (the nightly workflow does)")
	}
	reportFailures(t, Run(Config{Seed: 1, N: 100}))
}

func reportFailures(t *testing.T, rep *Report) {
	t.Helper()
	for _, f := range rep.Failures {
		repro, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatalf("marshal failure: %v", err)
		}
		t.Errorf("case %d under %s violated invariants; minimized repro:\n%s", f.Case, f.Stack, repro)
	}
}

// TestQuickDeterministic pins that the harness itself is reproducible:
// same config, same report.
func TestQuickDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, N: 2, Stacks: []core.Stack{core.RTVirt, core.Credit}}
	a, b := Run(cfg), Run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical quickcheck runs disagreed:\n%+v\n%+v", a, b)
	}
}

// TestShrinkConvergesToMinimal drives the shrinking loop with a synthetic
// failure predicate ("fails whenever vm1 is present") and checks it strips
// everything else: the other VMs, all tasks, the extra PCPUs, the run
// length.
func TestShrinkConvergesToMinimal(t *testing.T) {
	sc := Generate(rand.New(rand.NewSource(7)))
	sc.Seconds = 8
	sc.PCPUs = 4
	for len(sc.VMs) < 3 {
		sc.VMs = append(sc.VMs, scenario.VM{Name: "filler", VCPUs: 1})
	}
	sc.VMs[1].Name = "vm1"

	hasVM1 := func(c scenario.Scenario) []check.Violation {
		for _, vm := range c.VMs {
			if vm.Name == "vm1" {
				return []check.Violation{{Oracle: "synthetic", Detail: "vm1 present"}}
			}
		}
		return nil
	}
	min, vs, steps := shrinkWith(sc, hasVM1, func() bool { return false })
	if len(vs) == 0 || steps == 0 {
		t.Fatalf("shrinker lost the failure (steps=%d, violations=%d)", steps, len(vs))
	}
	if len(min.VMs) != 1 || min.VMs[0].Name != "vm1" {
		t.Fatalf("expected exactly vm1 to survive, got %+v", min.VMs)
	}
	if len(min.VMs[0].Tasks) != 0 {
		t.Fatalf("expected all tasks stripped, got %d", len(min.VMs[0].Tasks))
	}
	if min.PCPUs != 1 {
		t.Fatalf("expected PCPUs shrunk to 1, got %d", min.PCPUs)
	}
	if min.Seconds != 1 {
		t.Fatalf("expected Seconds shrunk to 1, got %d", min.Seconds)
	}
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk scenario no longer valid: %v", err)
	}
}

// TestShrinkReportsUnreproducible pins the fallback: a failure that does
// not reproduce in isolation comes back unshrunk with zero steps.
func TestShrinkReportsUnreproducible(t *testing.T) {
	sc := Generate(rand.New(rand.NewSource(3)))
	passes := func(scenario.Scenario) []check.Violation { return nil }
	min, vs, steps := shrinkWith(sc, passes, func() bool { return false })
	if steps != 0 || len(vs) != 0 {
		t.Fatalf("expected unshrunk pass-through, got steps=%d violations=%d", steps, len(vs))
	}
	if !reflect.DeepEqual(min, sc) {
		t.Fatal("unreproducible failure should return the original scenario")
	}
}

// TestRunOneForkProbeMatchesPlainRun guards the harness plumbing: the
// half-time fork probe must not change what the oracles see in the
// original world (the fork runs on its own bus).
func TestRunOneForkProbeMatchesPlainRun(t *testing.T) {
	sc := Generate(rand.New(rand.NewSource(11)))
	sc.Seconds = 2
	sc.Seed = 11
	for _, stack := range AllStacks {
		withFork, err1 := runOne(sc, stack, true)
		plain, err2 := runOne(sc, stack, false)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%v: fork probe changed buildability: %v vs %v", stack, err1, err2)
		}
		if !reflect.DeepEqual(withFork, plain) {
			t.Fatalf("%v: fork probe changed violations: %v vs %v", stack, withFork, plain)
		}
	}
}
