package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"rtvirt/internal/experiments"
)

// passes caches full-size passes by workload and seed: each takes seconds.
var passes = map[string]pass{}

func runPass(t *testing.T, name string, seed uint64) (*workload, pass) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprint(name, "/", seed)
	p, ok := passes[key]
	if !ok {
		b := &bench{w: w, seed: seed}
		p, _ = b.metered(w.cores, nil)
		passes[key] = p
	}
	return w, p
}

func failures(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}

// TestSeedChangesEveryDigest guards against a seed-blind workload: two
// seeds must give different digests, and both must pass the check.
func TestSeedChangesEveryDigest(t *testing.T) {
	for _, w := range workloads {
		_, p1 := runPass(t, w.name, 1)
		_, p2 := runPass(t, w.name, 2)
		for seed, p := range map[uint64]pass{1: p1, 2: p2} {
			if errs := checkPass(w, seed, p, nil); failures(errs) > 0 {
				t.Errorf("%s seed %d: check failed: %v", w.name, seed, errs)
			}
		}
		if passDigest(p1.arms) == passDigest(p2.arms) {
			t.Errorf("%s: seeds 1 and 2 give the same digest", w.name)
		}
		for i := range p1.arms {
			if digest(p1.arms[i].Value) == digest(p2.arms[i].Value) {
				t.Errorf("%s arm %s: seeds 1 and 2 give the same result", w.name, p1.arms[i].Name)
			}
		}
	}
}

// mutate copies a pass and changes one arm's result.
func mutate(p pass, i int, fn func(v any) any) pass {
	q := p
	q.arms = append([]arm(nil), p.arms...)
	q.arms[i].Value = fn(q.arms[i].Value)
	return q
}

// TestMutatedResultFails changes one number in a real result and expects
// the check to catch it: through the recorded reference at the default
// seed, through pass-to-pass identity at any seed, and through the
// seed-independent invariants where one covers the number.
func TestMutatedResultFails(t *testing.T) {
	cases := []struct {
		workload string
		arm      int
		mutate   func(v any) any
		// invariant is set where the invariants alone must catch it.
		invariant bool
	}{
		{"table6-scale", 0, func(v any) any {
			r := v.(experiments.Table6Row)
			r.Misses.Missed++
			return r
		}, false},
		{"table6-scale", 3, func(v any) any {
			r := v.(experiments.Table6Row)
			r.Migrations++
			return r
		}, true},
		{"fig5a-contention", 2, func(v any) any {
			r := v.(experiments.Figure5Row)
			r.Requests++
			return r
		}, true},
		{"fig5a-contention", 3, func(v any) any {
			r := v.(experiments.Figure5Row)
			r.P999++
			return r
		}, false},
		{"pdes64-cluster", 0, func(v any) any {
			r := v.(pdesResult)
			r.Sent = append([]int(nil), r.Sent...)
			r.Sent[17]++
			return r
		}, true},
		{"pdes64-cluster", 0, func(v any) any {
			r := v.(pdesResult)
			r.Digest = strings.Replace(r.Digest, "missed=", "missed=1", 1)
			return r
		}, false},
	}
	for _, c := range cases {
		w, clean := runPass(t, c.workload, referenceSeed)
		bad := mutate(clean, c.arm, c.mutate)
		if n := failures(checkPass(w, referenceSeed, bad, nil)); n == 0 {
			t.Errorf("%s: mutated arm %d passes against the reference", c.workload, c.arm)
		}
		if errs := checkPass(w, 7, bad, &clean); errs[c.arm] == nil {
			t.Errorf("%s: mutated arm %d matches the clean pass", c.workload, c.arm)
		}
		if errs := checkPass(w, 7, bad, nil); c.invariant && errs[c.arm] == nil {
			t.Errorf("%s: invariants miss the mutation of arm %d", c.workload, c.arm)
		}
	}
}

// TestPDESLostRequestsFail: requests that one client sent but no host
// resolved fail the check once they exceed what can be in flight at that
// host, even when the digest and the counters agree about them.
func TestPDESLostRequestsFail(t *testing.T) {
	_, clean := runPass(t, "pdes64-cluster", referenceSeed)
	r := clean.arms[0].Value.(pdesResult)
	if err := pdesWorld(r); err != nil {
		t.Fatal(err)
	}
	const client, lost = 17, 25 // more than the 24 a target host may have in flight
	line := fmt.Sprintf("client%d host=", client)
	before := fmt.Sprintf(" sent=%d\n", r.Sent[client])
	after := fmt.Sprintf(" sent=%d\n", r.Sent[client]+lost)
	i := strings.Index(r.Digest, line)
	j := i + strings.Index(r.Digest[i:], before)
	r.Digest = r.Digest[:j] + after + r.Digest[j+len(before):]
	r.Sent = append([]int(nil), r.Sent...)
	r.Sent[client] += lost
	if err := digestAgrees(r); err != nil {
		t.Fatalf("the mutation is not consistent: %v", err)
	}
	if err := pdesWorld(r); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("%d lost requests at one host: %v", lost, err)
	}
}

// TestPanickedArmFails: an arm that panicked counts as failed.
func TestPanickedArmFails(t *testing.T) {
	w, clean := runPass(t, "table6-scale", referenceSeed)
	bad := clean
	bad.arms = append([]arm(nil), clean.arms...)
	bad.arms[1] = arm{Name: bad.arms[1].Name, Err: guard(func() { panic("boom") })}
	if errs := checkPass(w, 7, bad, nil); errs[1] == nil {
		t.Error("a panicked arm passed the check")
	}
}

// TestManifestListsEveryMetric keeps BENCHMARK.json in step with the
// metrics the program prints.
func TestManifestListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, program prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %s, program %s", i, m.Workloads[i].Name, w.name)
		}
	}
}

// TestPDESGroupsAgree: the PDES world gives the same output at one and
// at two executor groups.
func TestPDESGroupsAgree(t *testing.T) {
	w, two := runPass(t, "pdes64-cluster", referenceSeed)
	one, _ := (&bench{w: w, seed: referenceSeed}).metered(1, nil)
	if errs := checkPass(w, referenceSeed, one, &two); failures(errs) > 0 {
		t.Errorf("one executor group: %v", errs)
	}
}

// TestReferenceKernel runs the reference on two goroutines, as the PDES
// workload does.
func TestReferenceKernel(t *testing.T) {
	var out strings.Builder
	if err := runReference(2, &out); err != nil {
		t.Fatal(err)
	}
	var wall, cpu int64
	if _, err := fmt.Sscan(out.String(), &wall, &cpu); err != nil || wall <= 0 || cpu <= 0 {
		t.Errorf("reference printed %q", out.String())
	}
}
