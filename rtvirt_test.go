package rtvirt_test

import (
	"fmt"
	"strings"
	"testing"

	"rtvirt"
)

// TestPublicAPIQuickstart exercises the README's quick-start path through
// the public facade.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	vm, err := sys.NewGuest("vm0", 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := rtvirt.NewRTApp(vm, 0, "sensor",
		rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	app.Start(0)
	sys.Run(10 * rtvirt.Second)
	st := app.Task.Stats()
	if st.Missed != 0 || st.Completed < 990 {
		t.Fatalf("quickstart stats: %+v", st)
	}
}

// TestPublicAPIAnalysis exercises the CSA helpers through the facade.
func TestPublicAPIAnalysis(t *testing.T) {
	tasks := []rtvirt.Params{{Slice: 23 * rtvirt.Millisecond, Period: 30 * rtvirt.Millisecond}}
	iface, ok := rtvirt.BestInterface(tasks, rtvirt.InterfaceCandidates(tasks), rtvirt.Millisecond)
	if !ok {
		t.Fatal("no interface")
	}
	if iface.Bandwidth() < 23.0/30.0 {
		t.Fatalf("interface below task bandwidth: %v", iface)
	}
}

// TestPublicAPIMemcached exercises the workload facade.
func TestPublicAPIMemcached(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	zero := rtvirt.Duration(0)
	vm, err := sys.NewGuestOpts("mc", rtvirt.GuestOpts{VCPUs: 1, Slack: &zero})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := rtvirt.NewMemcached(vm, 0, rtvirt.DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	mc.Start(0)
	sys.Run(20 * rtvirt.Second)
	if mc.Latency.Count() < 1500 {
		t.Fatalf("served %d requests", mc.Latency.Count())
	}
	if p := mc.Latency.Percentile(99.9); p > 500*rtvirt.Microsecond {
		t.Fatalf("p99.9 = %v on an idle host", p)
	}
}

// ExampleNewSystem demonstrates the minimal RTVirt program.
func ExampleNewSystem() {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	vm, _ := sys.NewGuest("vm0", 1)
	app, _ := rtvirt.NewRTApp(vm, 0, "sensor",
		rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	sys.Start()
	app.Start(0)
	sys.Run(rtvirt.Second)
	st := app.Task.Stats()
	fmt.Printf("completed %d jobs, missed %d deadlines\n", st.Completed, st.Missed)
	// Output: completed 100 jobs, missed 0 deadlines
}

// TestPublicAPIIOApp exercises the I/O workload through the facade.
func TestPublicAPIIOApp(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	zero := rtvirt.Duration(0)
	vm, err := sys.NewGuestOpts("io", rtvirt.GuestOpts{VCPUs: 1, Slack: &zero})
	if err != nil {
		t.Fatal(err)
	}
	app, err := rtvirt.NewIOApp(vm, 0, rtvirt.DefaultIOAppConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	app.Start(0)
	sys.Run(10 * rtvirt.Second)
	if app.Latency.Count() < 1000 || app.SLOViolations != 0 {
		t.Fatalf("io app: served=%d violations=%d", app.Latency.Count(), app.SLOViolations)
	}
}

// TestPublicAPICluster exercises the multi-host facade.
func TestPublicAPICluster(t *testing.T) {
	c := rtvirt.NewCluster(rtvirt.ClusterDefaults())
	d, err := c.Place(rtvirt.VMSpec{
		Name:  "vm",
		VCPUs: 1,
		Tasks: []rtvirt.ClusterTaskSpec{{
			Name:   "t",
			Kind:   rtvirt.Periodic,
			Params: rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(2*rtvirt.Second, 1)
	if _, err := c.Migrate("vm", nil); err != nil {
		t.Fatal(err)
	}
	c.Run(2*rtvirt.Second, 2)
	if d.Migrations != 1 {
		t.Fatalf("migrations = %d", d.Migrations)
	}
	if st := d.Tasks()[0].Stats(); st.Completed < 300 {
		t.Fatalf("completed = %d", st.Completed)
	}
}

// TestPublicAPITraceAndQuantile exercises the tracer and the streaming
// quantile through the facade.
func TestPublicAPITraceAndQuantile(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	rec := &rtvirt.TraceRecorder{Max: 10000}
	rtvirt.AttachTracer(sys, rec)
	vm, _ := sys.NewGuest("vm", 1)
	app, _ := rtvirt.NewRTApp(vm, 0, "t",
		rtvirt.Params{Slice: rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	q := rtvirt.NewP2Quantile(0.99)
	app.Task.OnJobDone = func(j *rtvirt.Job) { q.Add(j.Finish.Sub(j.Release)) }
	sys.Start()
	app.Start(0)
	sys.Run(5 * rtvirt.Second)
	if rec.Len() == 0 {
		t.Fatal("no trace records")
	}
	if v := q.Value(); v < 900*rtvirt.Microsecond || v > 1100*rtvirt.Microsecond {
		t.Fatalf("p99 response = %v, want ≈1ms", v)
	}
	sum := rtvirt.SummarizeTrace(rec)
	v := sum.VCPUs["vm/0"]
	if v == nil || v.Run == 0 || v.Completions == 0 {
		t.Fatalf("trace summary: %+v", sum.VCPUs)
	}
	if v.Migrations != 0 {
		t.Fatalf("single-PCPU run migrated %d times", v.Migrations)
	}
}

// TestPublicAPIScenario drives the declarative scenario path end to end:
// parse JSON, admission-check it offline, then simulate and confirm the
// analyzer's verdict holds.
func TestPublicAPIScenario(t *testing.T) {
	const doc = `{
	  "stack": "rtvirt", "pcpus": 2, "seconds": 2, "seed": 7,
	  "vms": [{
	    "name": "ctl-vm", "vcpus": 1,
	    "tasks": [
	      {"name": "ctl", "kind": "periodic", "slice_us": 2000, "period_us": 10000},
	      {"name": "log", "kind": "background"}
	    ]
	  }]
	}`
	sc, err := rtvirt.ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}

	plan, err := rtvirt.AnalyzeScenario(sc, rtvirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.RTVirtAdmitted || !plan.RTXenAdmitted {
		t.Fatalf("admission: %+v", plan)
	}
	if len(plan.VMs) != 1 || len(plan.VMs[0].RTVirt) != 1 || plan.VMs[0].Background != 1 {
		t.Fatalf("plan: %+v", plan.VMs)
	}

	res, err := rtvirt.RunScenario(sc, rtvirt.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Name == "ctl" && tr.Stats.Missed != 0 {
			t.Fatalf("admitted task missed %d deadlines", tr.Stats.Missed)
		}
	}
	// The simulator reserves what the analyzer predicted.
	if got, want := res.AllocatedBW, plan.RTVirtAllocated; got < want-0.01 || got > want+0.01 {
		t.Fatalf("reserved %.3f CPUs, analyzer predicted %.3f", got, want)
	}
}

// TestPublicAPIScenarioRejectsBadJSON covers the error path.
func TestPublicAPIScenarioRejectsBadJSON(t *testing.T) {
	if _, err := rtvirt.ParseScenario(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestPublicAPIWorkloadZoo exercises every workload constructor and helper
// the facade re-exports, on one mixed host.
func TestPublicAPIWorkloadZoo(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 4
	cfg.Costs = rtvirt.DefaultCosts()
	sys := rtvirt.NewSystem(cfg)

	vidVM, err := sys.NewGuest("video", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtvirt.VideoProfiles()) == 0 {
		t.Fatal("no Table-3 profiles")
	}
	vid, err := rtvirt.NewVideoStream(vidVM, 0, 30)
	if err != nil {
		t.Fatal(err)
	}

	srvVM, err := sys.NewGuest("server", 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rtvirt.NewSporadicClient(srvVM, 1, "rpc",
		rtvirt.Params{Slice: 200 * rtvirt.Microsecond, Period: 5 * rtvirt.Millisecond},
		rtvirt.UniformDist(10*rtvirt.Millisecond, 30*rtvirt.Millisecond), 50)
	if err != nil {
		t.Fatal(err)
	}
	burst := rtvirt.NewTask(2, "burst", rtvirt.Sporadic,
		rtvirt.Params{Slice: 100 * rtvirt.Microsecond, Period: 10 * rtvirt.Millisecond})
	if err := srvVM.Register(burst); err != nil {
		t.Fatal(err)
	}
	bc := rtvirt.AttachSporadicClient(srvVM, burst,
		rtvirt.NormalDist(20*rtvirt.Millisecond, 2*rtvirt.Millisecond, 15*rtvirt.Millisecond), 30)

	bgVM, err := sys.NewGuest("batch", 1)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := rtvirt.NewCPUHog(bgVM, 3, "hog")
	if err != nil {
		t.Fatal(err)
	}
	if bg := rtvirt.NewBackgroundTask(4, "bg"); bg.Kind != rtvirt.Background {
		t.Fatalf("background task kind = %v", bg.Kind)
	}

	sys.Start()
	vid.App.Start(0)
	sp.Start(0)
	bc.Start(0)
	hog.Start(0)
	sys.Run(2 * rtvirt.Second)

	if sp.Sent() != 50 || bc.Sent() != 30 {
		t.Fatalf("clients sent %d/%d requests", sp.Sent(), bc.Sent())
	}
	sum := rtvirt.SummarizeMisses([]*rtvirt.Task{vid.App.Task, sp.Task, burst})
	if sum.Tasks != 3 || sum.Released == 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Missed != 0 {
		t.Fatalf("admitted mixed workload missed %d deadlines", sum.Missed)
	}
	if hog.Task.Stats().TotalWork == 0 {
		t.Fatal("background hog never ran")
	}
}
