package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"rtvirt/internal/sched/dpwrap.(*Scheduler).rebuild":        "rtvirt/internal/sched/dpwrap",
		"rtvirt/internal/runner.Map[go.shape.int,go.shape.string]": "rtvirt/internal/runner",
		"rtvirt/internal/sim.(*ShardSet).RunFor.func1":             "rtvirt/internal/sim",
		"math.Exp": "math",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"runtime.mallocgc":                        "runtime",
		"main.main":                               "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestFoldStack(t *testing.T) {
	cases := []struct {
		stack       []string
		runtimeLeaf bool
		want        string
	}{
		// Standard-library frames fold into the nearest repository caller.
		{[]string{"math.Exp", "math.exp", "rtvirt/internal/dist.LogNormal.Sample", "rtvirt/internal/hv.(*Host).dispatch"}, true, "dist"},
		{[]string{"sort.insertionSort", "rtvirt/internal/sched/dpwrap.(*Scheduler).rebuild"}, true, "dpwrap"},
		// CPU time in the runtime stays runtime; its allocations fold.
		{[]string{"runtime.mallocgc", "runtime.newobject", "rtvirt/internal/task.(*Task).Release"}, true, "runtime"},
		{[]string{"runtime.newobject", "rtvirt/internal/task.(*Task).Release"}, false, "task"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, true, "runtime"},
		{[]string{"rtvirt/internal/simtime.Time.Add"}, true, "simtime"},
		{[]string{"rtvirt/internal/check.Oracle"}, true, "other"},
		{[]string{"main.run"}, false, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack, c.runtimeLeaf); got != c.want {
			t.Errorf("foldStack(%v, %v) = %s, want %s", c.stack, c.runtimeLeaf, got, c.want)
		}
	}
}

// TestFoldTraces folds a fixed pprof -traces listing: values in any
// unit, inlined frames, label lines and a generic name with spaces.
func TestFoldTraces(t *testing.T) {
	const sep = "-----------+-------------------------------------------------------\n"
	text := "File: perfbench\nType: cpu\n" +
		sep + "      20ms   math.Exp (inline)\n             rtvirt/internal/dist.LogNormal.Sample\n" +
		sep + "       key:  value\n     1.50s   runtime.mallocgc\n             rtvirt/internal/task.(*Task).Release\n" +
		sep + "     250us   rtvirt/internal/runner.Map[go.shape.struct { a int }]\n             main.run\n" +
		sep
	got, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dist": 0.02, "runtime": 1.5, "runner": 0.00025}
	if len(got) != len(want) {
		t.Errorf("foldTraces = %v, want %v", got, want)
	}
	for l, s := range want {
		if math.Abs(got[l]-s) > 1e-12 {
			t.Errorf("%s: %g s, want %g", l, got[l], s)
		}
	}
	if _, err := foldTraces(sep + "     12xx   main.run\n"); err == nil {
		t.Error("an unknown unit was accepted")
	}
}

// TestFoldCPUProfile folds a real profile of this test's own busy loop.
func TestFoldCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	x := 0
	err := cpuProfile(path, func() {
		for i := 0; i < 300_000_000; i++ {
			x += i % 7
		}
	})
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	byLayer, err := foldCPUProfiles(path, path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range byLayer {
		total += s
	}
	if total <= 0 || byLayer["other"] < total/2 {
		t.Errorf("busy loop in package main: %v (x=%d)", byLayer, x)
	}
}
