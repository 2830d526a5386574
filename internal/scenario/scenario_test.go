package scenario

import (
	"strings"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/trace"
)

const mixedJSON = `{
  "stack": "rtvirt",
  "pcpus": 2,
  "seconds": 5,
  "seed": 3,
  "vms": [
    {"name": "rt", "vcpus": 1, "tasks": [
      {"name": "ctl", "kind": "periodic", "slice_us": 2000, "period_us": 10000},
      {"name": "srv", "kind": "sporadic", "slice_us": 500, "period_us": 5000, "rate_hz": 50}
    ]},
    {"name": "batch", "vcpus": 1, "tasks": [{"name": "hog", "kind": "background"}]}
  ]
}`

func TestParseAndRun(t *testing.T) {
	sc, err := Parse(strings.NewReader(mixedJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack != core.RTVirt || res.PCPUs != 2 || res.Seconds != 5 {
		t.Fatalf("run meta wrong: %+v", res)
	}
	byName := map[string]TaskResult{}
	for _, tr := range res.Tasks {
		byName[tr.Name] = tr
	}
	ctl := byName["ctl"]
	if ctl.Stats.Released != 501 || ctl.Stats.Missed != 0 {
		t.Fatalf("ctl stats: %+v", ctl.Stats)
	}
	srv := byName["srv"]
	if srv.Latency == nil || srv.Latency.Count() < 200 {
		t.Fatalf("srv latency samples: %v", srv.Latency)
	}
	hog := byName["hog"]
	// The batch VM has one VCPU: it can soak at most one of the two CPUs.
	if hog.Stats.TotalWork < 45*1e8 {
		t.Fatalf("hog consumed %v; an idle CPU should feed it", hog.Stats.TotalWork)
	}
	if res.AllocatedBW <= 0 {
		t.Fatal("no bandwidth reserved")
	}
}

func TestRunWithTrace(t *testing.T) {
	sc, err := Parse(strings.NewReader(mixedJSON))
	if err != nil {
		t.Fatal(err)
	}
	sc.Seconds = 1
	res, err := Run(sc, Options{Trace: true, TraceMax: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	var done int
	for _, r := range res.Trace.Records() {
		if r.Kind == trace.JobDone {
			done++
		}
	}
	if done < 100 {
		t.Fatalf("trace recorded %d completions", done)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"stacc": "rtvirt"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		json string
		// field, when set, must appear in the validation error.
		field string
	}{
		{"no VMs", `{"stack": "rtvirt"}`, ""},
		{"bad stack", `{"stack": "vmware", "vms": [{"name": "a"}]}`, ""},
		{"anonymous VM", `{"vms": [{"vcpus": 1}]}`, ""},
		{"bad kind", `{"vms": [{"name": "a", "tasks": [{"name": "t", "kind": "spooky"}]}]}`, ""},
		{"bad params", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 10, "period_us": 5}]}]}`, ""},
		{"zero slice", `{"vms": [{"name": "a", "tasks": [{"name": "t", "period_us": 5}]}]}`, ""},
		{"bad guest sched", `{"vms": [{"name": "a", "guest_sched": "cfs"}]}`, ""},
		{"negative slack", `{"vms": [{"name": "a", "slack_us": -1}]}`, ""},
		{"hotplug below vcpus", `{"vms": [{"name": "a", "vcpus": 4, "max_vcpus": 2}]}`, ""},
		{"negative priority", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 1, "period_us": 5, "priority": -2}]}]}`, ""},
		{"negative cost", `{"costs": {"context_switch": -1}, "vms": [{"name": "a"}]}`, "context_switch"},
		{"unknown cost field", `{"costs": {"warp_us": 1}, "vms": [{"name": "a"}]}`, ""},
		{"negative phase", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 1, "period_us": 5, "phase_ms": -5}]}]}`, "phase_ms"},
		{"negative server budget", `{"stack": "rt-xen", "vms": [{"name": "a", "servers": [{"budget_us": -1, "period_us": 10000}]}]}`, "budget_us"},
		{"negative server period", `{"stack": "rt-xen", "vms": [{"name": "a", "servers": [{"budget_us": 1000, "period_us": -10000}]}]}`, "period_us"},
		{"removed context_switch_us", `{"costs": {"context_switch_us": 2}, "vms": [{"name": "a"}]}`, "use costs.context_switch"},
		{"removed migration_us", `{"costs": {"migration_us": 3}, "vms": [{"name": "a"}]}`, "use costs.migration"},
		{"removed hypercall_us", `{"costs": {"hypercall_us": 10}, "vms": [{"name": "a"}]}`, "use costs.hypercall"},
	}
	for _, c := range cases {
		// A parse-level rejection also counts, and must name the field too.
		sc, err := Parse(strings.NewReader(c.json))
		if err == nil {
			err = sc.Validate()
		}
		if err == nil {
			t.Errorf("%s: validated", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

func TestStackFor(t *testing.T) {
	for name, want := range map[string]core.Stack{
		"": core.RTVirt, "rtvirt": core.RTVirt, "rt-xen": core.RTXen,
		"rtxen": core.RTXen, "edf": core.TwoLevelEDF, "credit": core.Credit,
	} {
		got, err := StackFor(name)
		if err != nil || got != want {
			t.Errorf("StackFor(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := StackFor("esxi"); err == nil {
		t.Error("unknown stack accepted")
	}
}

func TestServerGuestsAndCreditWeights(t *testing.T) {
	js := `{
	  "stack": "credit",
	  "pcpus": 1,
	  "seconds": 2,
	  "vms": [
	    {"name": "capped", "servers": [{"budget_us": 3000, "period_us": 10000}],
	     "tasks": [{"name": "hog1", "kind": "background"}]},
	    {"name": "free", "weight": 256,
	     "tasks": [{"name": "hog2", "kind": "background"}]}
	  ]
	}`
	sc, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var capped, free TaskResult
	for _, tr := range res.Tasks {
		if tr.VM == "capped" {
			capped = tr
		} else {
			free = tr
		}
	}
	// The capped VM is limited to ~30%; the free one takes the rest.
	if capped.Stats.TotalWork > free.Stats.TotalWork {
		t.Fatalf("cap not enforced: capped %v vs free %v",
			capped.Stats.TotalWork, free.Stats.TotalWork)
	}
}

func TestGuestSchedAndSlackKnobs(t *testing.T) {
	const doc = `{
	  "stack": "rtvirt", "pcpus": 2, "seconds": 2, "seed": 3,
	  "vms": [
	    {
	      "name": "gedf-vm", "vcpus": 2, "guest_sched": "gedf",
	      "tasks": [
	        {"name": "a", "kind": "periodic", "slice_us": 3000, "period_us": 10000},
	        {"name": "b", "kind": "periodic", "slice_us": 3000, "period_us": 10000},
	        {"name": "c", "kind": "periodic", "slice_us": 3000, "period_us": 10000}
	      ]
	    },
	    {
	      "name": "lean-vm", "slack_us": 0,
	      "tasks": [{"name": "d", "kind": "periodic", "slice_us": 1000, "period_us": 10000}]
	    }
	  ]
	}`
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Stats.Missed != 0 {
			t.Errorf("task %s/%s missed %d deadlines", tr.VM, tr.Name, tr.Stats.Missed)
		}
	}
	// 0.9 CPUs of gedf-vm tasks + 0.1 of lean-vm + gedf-vm's slack terms;
	// lean-vm itself adds none.
	if res.AllocatedBW > 1.11 {
		t.Fatalf("allocated %.3f CPUs", res.AllocatedBW)
	}

	// In isolation, slack_us=0 must reserve exactly the fluid bandwidth:
	// ⌈0.1·10ms⌉ over 10ms = 0.1 CPUs, no slack term.
	lean := Scenario{
		Stack: "rtvirt", PCPUs: 1, Seconds: 1,
		VMs: []VM{{
			Name: "lean", SlackUS: new(int64),
			Tasks: []TaskSpec{{Name: "d", Kind: "periodic", SliceUS: 1000, PeriodUS: 10000}},
		}},
	}
	lres, err := Run(lean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lres.AllocatedBW < 0.0999 || lres.AllocatedBW > 0.1001 {
		t.Fatalf("slack_us=0 reserved %.4f CPUs, want exactly 0.1", lres.AllocatedBW)
	}
}

func TestPrioritySlackKnob(t *testing.T) {
	run := func(prio int, prioritySlack bool) float64 {
		sc := Scenario{
			Stack: "rtvirt", PCPUs: 2, Seconds: 1,
			VMs: []VM{{
				Name: "v", PrioritySlack: prioritySlack,
				Tasks: []TaskSpec{{
					Name: "t", Kind: "periodic",
					SliceUS: 2000, PeriodUS: 10000, Priority: prio,
				}},
			}},
		}
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.AllocatedBW
	}
	base := run(0, true)
	boosted := run(3, true)
	ignored := run(3, false)
	// Priority 3 with priority_slack buys (1+3)× the 500µs slack:
	// budget 2ms+2ms over 10ms vs 2ms+0.5ms.
	if boosted <= base {
		t.Fatalf("priority_slack had no effect: base %.3f boosted %.3f", base, boosted)
	}
	if ignored != base {
		t.Fatalf("priority affected allocation without priority_slack: %.3f vs %.3f", ignored, base)
	}
}

func TestHotplugKnob(t *testing.T) {
	// One VCPU cannot hold 1.4 CPUs of tasks; max_vcpus lets the guest
	// grow. Without it, registration must fail.
	doc := func(maxVCPUs int) Scenario {
		return Scenario{
			Stack: "rtvirt", PCPUs: 2, Seconds: 1, VMs: []VM{{
				Name: "v", VCPUs: 1, MaxVCPUs: maxVCPUs,
				Tasks: []TaskSpec{
					{Name: "a", Kind: "periodic", SliceUS: 7000, PeriodUS: 10000},
					{Name: "b", Kind: "periodic", SliceUS: 7000, PeriodUS: 10000},
				},
			}},
		}
	}
	if _, err := Run(doc(0), Options{}); err == nil {
		t.Fatal("1.4 CPUs of tasks fit a single fixed VCPU")
	}
	res, err := Run(doc(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Stats.Missed != 0 {
			t.Errorf("task %s missed %d deadlines after hotplug", tr.Name, tr.Stats.Missed)
		}
	}
}

func TestCostsOverride(t *testing.T) {
	run := func(costs string) *Result {
		js := `{
  "pcpus": 1, "seconds": 2, "seed": 3,` + costs + `
  "vms": [{"name": "rt", "tasks": [
    {"name": "ctl", "kind": "periodic", "slice_us": 2000, "period_us": 10000}]}]
}`
		sc, err := Parse(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	def := run(``)
	costly := run(`
  "costs": {"context_switch": 200, "hypercall": 500},`)
	free := run(`
  "costs": {"context_switch": 0, "migration": 0, "hypercall": 0},`)

	if costly.Overhead.Percent <= def.Overhead.Percent {
		t.Fatalf("inflated costs did not raise overhead: %v <= %v",
			costly.Overhead.Percent, def.Overhead.Percent)
	}
	if free.Overhead.Percent >= def.Overhead.Percent {
		t.Fatalf("zeroed costs did not lower overhead: %v >= %v",
			free.Overhead.Percent, def.Overhead.Percent)
	}
	if costly.Overhead.CtxSwitchTime <= def.Overhead.CtxSwitchTime {
		t.Fatalf("context-switch override ignored: %v <= %v",
			costly.Overhead.CtxSwitchTime, def.Overhead.CtxSwitchTime)
	}
}
