// Package quick is the randomized property harness over the invariant
// oracles: it draws seeded random scenarios (Generate), runs each one
// under all four scheduler stacks with the full check.Suite armed plus a
// mid-run fork bit-identity probe, and shrinks any violating world to a
// minimal reproducer (Shrink) that rtvirt-sim can replay directly.
//
// Three front ends drive it: bounded deterministic property tests in this
// package (go test), native fuzz targets over the scenario codec, and
// `rtvirt-bench -experiment quickcheck -n N -seed S` for nightly soaks.
package quick

import (
	"fmt"
	"math/rand"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/experiments"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
)

// Config tunes a quickcheck run. The zero value of every optional field
// selects the default; only Seed and N are usually set.
type Config struct {
	// Seed fixes the whole run: case k draws its scenario and its
	// simulation streams from splitmix64(Seed, k).
	Seed uint64
	// N is the number of generated scenarios (default 25). Each runs once
	// per stack.
	N int
	// Seconds is the simulated length per run (default 2).
	Seconds int64
	// Stacks overrides the stacks exercised (default: all four).
	Stacks []core.Stack
	// SkipFork disables the mid-run fork bit-identity probe.
	SkipFork bool
	// Shards is the executor-group axis of the sharded-PDES identity
	// oracle: each scenario is replicated onto a small sharded cluster and
	// run once per group count, and every digest must match the first
	// entry's (default DefaultShards = 1, 2, 4). A single entry disables
	// the comparison; so does SkipPDES.
	Shards   []int
	SkipPDES bool
	// MaxShrinkRuns caps the simulations the shrinker may spend per
	// failure (default 200).
	MaxShrinkRuns int
}

// Failure is one violating run, shrunk to a minimal reproducer. Scenario
// is complete (stack and seed included), so marshaling it yields a JSON
// file rtvirt-sim runs as-is.
type Failure struct {
	Case       int               `json:"case"`
	Stack      string            `json:"stack"`
	Seed       uint64            `json:"seed"`
	Violations []check.Violation `json:"violations"`
	Scenario   scenario.Scenario `json:"scenario"`
	// ShrinkSteps counts accepted reductions; ShrinkRuns the simulations
	// the shrinker spent.
	ShrinkSteps int `json:"shrink_steps"`
	ShrinkRuns  int `json:"shrink_runs"`
	// ForkBisect pins the first divergent dispatch when the violation is
	// a fork-identity breach (experiments.Bisect verdict).
	ForkBisect string `json:"fork_bisect,omitempty"`
}

// Report summarizes a quickcheck run.
type Report struct {
	Seed     uint64
	Cases    int
	Runs     int
	PDES     int // executor group counts the sharded identity oracle compared (0 = off)
	Skipped  int // builds rejected by admission control
	Failures []Failure
}

// AllStacks is the default stack set.
var AllStacks = []core.Stack{core.RTVirt, core.RTXen, core.TwoLevelEDF, core.Credit}

// splitmix64 derives case k's seed from the run seed — well-mixed so
// neighboring cases share no stream structure, and never zero (zero means
// "default" to the scenario loader).
func splitmix64(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Run executes the quickcheck harness and returns its report. Failures
// come back shrunk; the run itself never returns an error for a violating
// or unbuildable scenario (those are Failures and Skipped respectively).
func Run(cfg Config) *Report {
	if cfg.N <= 0 {
		cfg.N = 25
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 2
	}
	if len(cfg.Stacks) == 0 {
		cfg.Stacks = AllStacks
	}
	if cfg.MaxShrinkRuns <= 0 {
		cfg.MaxShrinkRuns = 200
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = DefaultShards
	}
	rep := &Report{Seed: cfg.Seed, Cases: cfg.N}
	if !cfg.SkipPDES && len(cfg.Shards) >= 2 {
		rep.PDES = len(cfg.Shards)
	}
	for i := 0; i < cfg.N; i++ {
		caseSeed := splitmix64(cfg.Seed, uint64(i))
		sc := Generate(rand.New(rand.NewSource(int64(caseSeed))))
		sc.Seconds = cfg.Seconds
		sc.Seed = caseSeed
		for _, stack := range cfg.Stacks {
			rep.Runs++
			vs, err := runOne(sc, stack, !cfg.SkipFork)
			if err != nil {
				rep.Skipped++
				continue
			}
			if len(vs) == 0 {
				continue
			}
			min, minVs, steps, runs := Shrink(sc, stack, !cfg.SkipFork, cfg.MaxShrinkRuns)
			f := Failure{
				Case:        i,
				Stack:       stack.String(),
				Seed:        caseSeed,
				Violations:  minVs,
				Scenario:    min,
				ShrinkSteps: steps,
				ShrinkRuns:  runs,
			}
			if hasForkViolation(minVs) {
				f.ForkBisect = pinForkDivergence(min, stack)
			}
			rep.Failures = append(rep.Failures, f)
		}
		if cfg.SkipPDES || len(cfg.Shards) < 2 {
			continue
		}
		// The sharded-PDES identity oracle, with the per-host suite armed.
		// It is stack-independent (the replica runs under the sharded
		// default stack), so it sits outside the stacks loop.
		rep.Runs++
		vs, err := pdesIdentity(sc, caseSeed, cfg.Shards)
		if err != nil {
			rep.Skipped++
			continue
		}
		if len(vs) > 0 {
			rep.Failures = append(rep.Failures, Failure{
				Case:       i,
				Stack:      "pdes",
				Seed:       caseSeed,
				Violations: vs,
				Scenario:   sc,
			})
		}
	}
	return rep
}

// runOne builds sc under stack with the oracle suite armed, runs it (with
// a half-time fork identity probe unless disabled), and returns the
// violations. A build error means admission control rejected the world.
func runOne(sc scenario.Scenario, stack core.Stack, forkCheck bool) ([]check.Violation, error) {
	sc.Stack = stack.String()
	opts := check.Opts{}
	if stack == core.RTVirt {
		opts.NeverMiss = NeverMiss(sc)
	}
	var suite *check.Suite
	w, err := scenario.Build(sc, scenario.Options{
		OnSystem: func(sys *core.System) { suite = check.Attach(sys, opts) },
	})
	if err != nil {
		return nil, err
	}
	w.Start()
	total := simtime.Duration(w.Seconds) * simtime.Second
	var forkV *check.Violation
	if forkCheck {
		half := total / 2
		w.Sys.Run(half)
		v, ferr := check.ForkIdentity(w.Sys, total-half)
		if ferr != nil {
			// Unforkable world (a pending closure event): fall back to a
			// plain run; every other oracle still applies.
			w.Sys.Run(total - half)
		} else {
			forkV = v
		}
	} else {
		w.Sys.Run(total)
	}
	w.Finish()
	vs := suite.Finish()
	if forkV != nil {
		vs = append(vs, *forkV)
	}
	return vs, nil
}

func hasForkViolation(vs []check.Violation) bool {
	for _, v := range vs {
		if v.Oracle == "fork-identity" {
			return true
		}
	}
	return false
}

// pinForkDivergence reuses the frontier-fork bisector to name the first
// dispatch where a fork parts ways with its original: both builders
// replay the world to half-time; one hands over the original, the other
// its fork.
func pinForkDivergence(sc scenario.Scenario, stack core.Stack) string {
	sc.Stack = stack.String()
	build := func(takeFork bool) func() *core.System {
		return func() *core.System {
			w, err := scenario.Build(sc, scenario.Options{})
			if err != nil {
				panic(fmt.Sprintf("quick: bisect rebuild failed: %v", err))
			}
			w.Start()
			half := simtime.Duration(w.Seconds) * simtime.Second / 2
			w.Sys.Run(half)
			if !takeFork {
				return w.Sys
			}
			f, _, err := w.Sys.Fork()
			if err != nil {
				panic(fmt.Sprintf("quick: bisect fork failed: %v", err))
			}
			return f
		}
	}
	total := simtime.Duration(sc.Seconds) * simtime.Second
	res, err := experiments.Bisect(build(false), build(true), total-total/2, simtime.Millisecond)
	if err != nil {
		return fmt.Sprintf("bisect failed: %v", err)
	}
	return res.Render()
}
