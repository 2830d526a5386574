package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/core"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
	"rtvirt/internal/workload"
)

// These tests pin the fork determinism contract (DESIGN.md state model): a
// system forked at t=W and run to t=T must be bit-identical — same
// Fig3/Table6-style result rows AND the same trace event stream — as a
// fresh system run straight to t=T. Across all four stacks and three seeds.

// tailRecorder keeps the trace events after the fork point so the cold
// run's stream (recorded from t=0) and the forked run's stream (recorded
// from t=W) compare over the same window.
type tailRecorder struct {
	from   simtime.Time
	events []trace.Event
}

// Consume implements trace.Sink.
func (r *tailRecorder) Consume(ev trace.Event) {
	if ev.At > r.from {
		r.events = append(r.events, ev)
	}
}

// goldenWorld is a mixed workload — a memcached VM, a 30 fps transcoding
// VM and a CPU hog — that exercises sporadic arrivals, periodic releases
// and background load on every stack.
type goldenWorld struct {
	sys   *core.System
	mc    *workload.Memcached
	tasks []*task.Task
}

func buildGoldenWorld(stack core.Stack, seed uint64) goldenWorld {
	cfg := core.DefaultConfig(stack)
	cfg.PCPUs = 2
	cfg.Seed = seed
	sys := core.NewSystem(cfg)

	var gm, gv *guest.OS
	switch stack {
	case core.Credit:
		gm = mustGuest(sys.NewWeightedGuest("mc", 1, 727))
		gv = mustGuest(sys.NewWeightedGuest("video", 1, 512))
	case core.RTXen, core.TwoLevelEDF:
		gm = mustGuest(sys.NewServerGuest("mc",
			[]hv.Reservation{{Budget: simtime.Micros(66), Period: simtime.Micros(283)}}, 727))
		gv = mustGuest(sys.NewServerGuest("video",
			[]hv.Reservation{{Budget: simtime.Millis(6), Period: simtime.Millis(10)}}, 512))
	default: // RTVirt: cross-layer guests
		zero := simtime.Duration(0)
		gm = mustGuest(sys.NewGuestOpts("mc", core.GuestOpts{VCPUs: 1, Slack: &zero}))
		gv = mustGuest(sys.NewGuest("video", 1))
	}
	gb := mustGuest(sys.NewWeightedGuest("bg", 1, 256))

	mc, err := workload.NewMemcached(gm, 0, workload.DefaultMemcachedConfig())
	must(err)
	vs, err := workload.NewVideoStream(gv, 1, 30)
	must(err)
	hog, err := workload.NewCPUHog(gb, 2, "hog")
	must(err)

	sys.Start()
	mc.Start(0)
	vs.App.Start(0)
	hog.Start(0)
	return goldenWorld{
		sys:   sys,
		mc:    mc,
		tasks: []*task.Task{mc.Task, vs.App.Task, hog.Task},
	}
}

// goldenRows collects the Table-6-style outcome of a world: per-task job
// statistics, the memcached latency distribution, the host's bandwidth
// allocation and its overhead accounting. Every field must match exactly
// between the cold and forked runs.
type goldenRows struct {
	Stats    []task.Stats
	Requests int
	Mean     simtime.Duration
	P999     simtime.Duration
	Max      simtime.Duration
	Alloc    float64
	Overhead core.OverheadReport
}

func collectGoldenRows(w goldenWorld) goldenRows {
	rows := goldenRows{
		Requests: w.mc.Latency.Count(),
		Mean:     w.mc.Latency.Mean(),
		P999:     w.mc.Latency.Percentile(99.9),
		Max:      w.mc.Latency.Max(),
		Alloc:    w.sys.AllocatedBandwidth(),
		Overhead: w.sys.Overhead(),
	}
	for _, t := range w.tasks {
		rows.Stats = append(rows.Stats, t.Stats())
	}
	return rows
}

func TestForkDeterminismGolden(t *testing.T) {
	const (
		warm  = simtime.Second
		total = 2500 * simtime.Millisecond
	)
	stacks := []core.Stack{core.RTVirt, core.RTXen, core.TwoLevelEDF, core.Credit}
	seeds := []uint64{1, 2, 3}
	for _, stack := range stacks {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", stack, seed), func(t *testing.T) {
				// Cold control: one world, straight to t=total.
				cold := buildGoldenWorld(stack, seed)
				coldTail := &tailRecorder{from: simtime.Time(warm)}
				cold.sys.Host.TraceTo(coldTail)
				cold.sys.Run(total)
				want := collectGoldenRows(cold)

				// Warm world: run to t=warm, fork, run the fork out. The
				// trace bus is observer state and is not cloned; attach the
				// recorder to the fork's own bus.
				base := buildGoldenWorld(stack, seed)
				base.sys.Run(warm)
				fsys, ctx, err := base.sys.Fork()
				if err != nil {
					t.Fatalf("fork at t=%v: %v", warm, err)
				}
				fw := goldenWorld{sys: fsys, mc: clone.Get(ctx, base.mc)}
				for _, tk := range base.tasks {
					fw.tasks = append(fw.tasks, clone.Get(ctx, tk))
				}
				forkTail := &tailRecorder{from: simtime.Time(warm)}
				fsys.Host.TraceTo(forkTail)
				fsys.Run(total - warm)
				got := collectGoldenRows(fw)

				if !reflect.DeepEqual(got, want) {
					t.Errorf("forked rows diverge from cold run:\n fork: %+v\n cold: %+v", got, want)
				}
				if len(forkTail.events) != len(coldTail.events) {
					t.Fatalf("trace tail length: fork %d events, cold %d events",
						len(forkTail.events), len(coldTail.events))
				}
				for i := range forkTail.events {
					if forkTail.events[i] != coldTail.events[i] {
						t.Fatalf("trace tails diverge at event %d:\n fork: %+v\n cold: %+v",
							i, forkTail.events[i], coldTail.events[i])
					}
				}
				if len(forkTail.events) == 0 {
					t.Fatal("trace tail empty — the comparison window saw no events")
				}

				// The base world must be untouched by its fork's future: it
				// still sits at t=warm with its pre-fork statistics.
				if now := base.sys.Now(); now != simtime.Time(warm) {
					t.Errorf("base world advanced to %v by running its fork", now)
				}
			})
		}
	}
}

// TestLoadStepsForkMatchesCold pins that the warm-start Figure-5 sweep is
// bit-identical to the cold control that replays the prefix per arm. The
// steps include the paper's 19-hog Figure-5a point.
func TestLoadStepsForkMatchesCold(t *testing.T) {
	cfg := LoadStepConfig{
		Seed:     2,
		Warmup:   2 * simtime.Second,
		Duration: 3 * simtime.Second,
		Steps:    []int{0, 3, 19},
	}
	forked := Figure5LoadSteps(cfg)
	cfg.Cold = true
	cold := Figure5LoadSteps(cfg)
	if !reflect.DeepEqual(forked, cold) {
		t.Fatalf("forked sweep diverges from cold sweep:\n fork: %+v\n cold: %+v", forked, cold)
	}
	if want := len(cfg.Steps) * len(Arms()); len(forked) != want {
		t.Fatalf("expected %d rows, got %d", want, len(forked))
	}
	for _, r := range forked {
		if r.Requests == 0 {
			t.Fatalf("row %+v recorded no requests", r)
		}
	}
	// The 19-hog step must contend: some arm's tail grows over its
	// uncontended row (rows run step by step within each arm).
	n, contended := len(cfg.Steps), false
	for i := 0; i < len(forked); i += n {
		contended = contended || forked[i+n-1].P999 > forked[i].P999
	}
	if !contended {
		t.Fatal("19 hogs left every arm's tail unchanged; the sweep does not load the world")
	}
}

func TestBisectNoDivergence(t *testing.T) {
	build := func() *core.System { return buildGoldenWorld(core.RTVirt, 1).sys }
	res, err := Bisect(build, build, simtime.Second, simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("identical builders reported divergent: %+v", res)
	}
	if res.Probes != 1 {
		t.Fatalf("expected a single whole-horizon probe, got %d", res.Probes)
	}
}

func TestBisectFindsDivergence(t *testing.T) {
	const horizon = simtime.Second
	buildA := func() *core.System { return buildGoldenWorld(core.RTXen, 1).sys }
	buildB := func() *core.System { return buildGoldenWorld(core.TwoLevelEDF, 1).sys }
	res, err := Bisect(buildA, buildB, horizon, 100*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Fatal("deferrable-server and polling-server stacks never diverged")
	}
	if res.At > simtime.Time(horizon) {
		t.Fatalf("divergence reported beyond the horizon: %v", res.At)
	}
	if res.A == res.B {
		t.Fatalf("divergent result names identical events: %+v", res)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}
