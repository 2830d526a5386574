package quick

import (
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/scenario"
)

// TestRenderGoldenPass pins the exact `rtvirt-bench -experiment
// quickcheck` summary for a fixed config. The harness is deterministic,
// so any drift here is a behavioural change in the generator, a stack, or
// an oracle — review it like a golden-number change.
func TestRenderGoldenPass(t *testing.T) {
	got := Run(Config{Seed: 1, N: 5}).Render()
	// Seed 1's case 1 packs a 1-PCPU host past dpwrap admission once the
	// slack rides on top (bandwidth 1.206 > 1.0), so its RTVirt run skips —
	// the harness records rejected builds rather than failing them.
	want := "quickcheck: 5 cases x 4 stacks + pdes identity x 3 group counts (seed 1)\n" +
		"runs 25, skipped 1 (admission-rejected builds), failures 0\n" +
		"PASS: every invariant held in every run"
	if got != want {
		t.Errorf("summary drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderFailure pins the failing-report shape without needing a real
// scheduler bug: a hand-built report must list each violation and point
// at the replay path.
func TestRenderFailure(t *testing.T) {
	rep := &Report{
		Seed:  9,
		Cases: 1,
		Runs:  4,
		Failures: []Failure{{
			Case:  0,
			Stack: "rt-xen",
			Seed:  9,
			Violations: []check.Violation{
				{At: 1500000, Oracle: "budget", Detail: "vm0/vcpu0 overdrew its budget by 2µs on pcpu0"},
			},
			Scenario:    scenario.Scenario{Stack: "rt-xen", PCPUs: 1, Seconds: 1, Seed: 9},
			ShrinkSteps: 3,
			ShrinkRuns:  17,
		}},
	}
	got := rep.Render()
	want := "quickcheck: 1 cases x 4 stacks (seed 9)\n" +
		"runs 4, skipped 0 (admission-rejected builds), failures 1\n" +
		"FAIL: 1 violating run(s)\n" +
		"[0] case 0 under rt-xen: 1 violation(s), shrunk in 3 step(s) over 17 run(s)\n" +
		"    [1.5ms] budget: vm0/vcpu0 overdrew its budget by 2µs on pcpu0\n" +
		"replay a repro with: rtvirt-sim <repro>.json"
	if got != want {
		t.Errorf("failure summary drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
