// Command perfbench is the repository's benchmark. It runs one named
// workload in this process, times the calls into the simulator's public
// entry points, checks the simulated outputs, and prints every metric by
// name and unit, the last line being one JSON object:
//
//	go -C perfbench run . --workload table6-scale --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - table6-scale: Table 6 (§4.5), both scenarios under RTVirt and
//     RT-Xen with calibrated platform costs. Set-up heavy (CSA admission)
//     and scheduler heavy (RT-Xen gEDF over ~100 servers).
//   - fig5a-contention: Figure 5a (§4.4), one memcached VM against 19 CPU
//     hogs on 2 PCPUs under Credit, RT-Xen A/B and RTVirt. Allocation and
//     GC heavy; the only workload that runs the Credit scheduler.
//   - pdes64-cluster: the 64-host sharded PDES world (racks of 8, 128
//     cache VMs, 256 remote clients, 8 migrations) at 2 executor groups.
//     The only workload that exercises ShardSet windows and the barrier.
//
// With --trace 0 it repeats passes of the workload for --seconds and
// reports, as medians over the passes: host_ref and cpu_ref, a pass's wall
// and process CPU time as multiples of a fixed reference kernel timed just
// before and after it (reference.go); allocs and alloc_mb per pass; the
// set-up time setup_s of a near-empty build, timed against the same
// reference and given in seconds at its nominal speed; and the process's
// max_rss_mb. Raw pass and set-up times are printed in the log. With
// --trace 1 it alternates untraced and CPU-profiled passes for --seconds,
// then makes one pass with allocation sampling, and reports self CPU
// seconds and allocated objects by package (one layer per package), span
// times, the profiling overhead and the public work counters. Every pass
// is checked (see check.go); a failed check makes the run exit with
// status 1. Simulation arms attempted and failed are the result's
// attempted and failed counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rtvirt/internal/runner"
	"rtvirt/internal/sim"
)

func main() {
	runtime.MemProfileRate = 0 // allocation sampling only inside the traced pass
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table6-scale, fig5a-contention or pdes64-cluster")
	seed := fs.Uint64("seed", referenceSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measuring time of one run")
	traced := fs.Int("trace", 0, "1 for the profiled per-layer run, 0 for end-to-end metrics")
	refThreads := fs.Int("reference", 0, "run only the reference kernel on this many goroutines (reference.go)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *refThreads != 0 {
		if err := runReference(*refThreads, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	runner.SetDefault(1)
	fmt.Fprintf(stdout, "workload %s  seed %d  go %s  cores %d  GOMAXPROCS %d  eventq %s  RTVIRT_EVENTQ=%q\n",
		w.name, *seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), sim.DefaultBackend, os.Getenv("RTVIRT_EVENTQ"))

	b := &bench{w: w, seed: *seed, out: stdout, errs: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	specs, values := endToEnd, map[string]float64(nil)
	if *traced == 1 {
		specs = perLayer
		values, err = b.traced(budget)
	} else {
		values, err = b.untraced(budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range specs {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, values[m.name], m.unit)
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	if b.first != nil {
		fmt.Fprintf(stdout, "digest %s\n", passDigest(b.first.arms))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of a run with tracing off.
var endToEnd = []spec{
	{"host_ref", "ref"}, {"setup_s", "s"}, {"cpu_ref", "ref"},
	{"allocs", "count"}, {"alloc_mb", "MB"}, {"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run: self CPU seconds and
// allocated objects per layer, span times, the profiling overhead, the
// reference kernel's time (span.run_s / ref_s is host_ref) and the public
// work counters. A workload that bypasses a layer reports 0.
var perLayer = func() []spec {
	var s []spec
	for _, l := range layers {
		s = append(s, spec{l + ".cpu_s", "s"}, spec{l + ".allocs", "count"})
	}
	return append(s,
		spec{"span.build_s", "s"}, spec{"span.run_s", "s"}, spec{"span.check_s", "s"},
		spec{"profile.overhead_s", "s"}, spec{"ref_s", "s"},
		spec{"hv.dispatches", "count"}, spec{"hv.migrations", "count"}, spec{"hv.hypercalls", "count"},
		spec{"hv.replenishes", "count"}, spec{"guest.switches", "count"}, spec{"guest.jobs", "count"},
		spec{"guest.rejects", "count"}, spec{"hv.host_ns_per_dispatch", "ns"},
		spec{"workload.requests", "count"},
		spec{"sim.events", "count"}, spec{"sim.windows", "count"}, spec{"sim.events_per_window", "count"},
		spec{"sim.host_ns_per_event", "ns"}, spec{"sim.g1_host_s", "s"}, spec{"sim.group_speedup", "ratio"},
		spec{"cluster.delivered", "count"}, spec{"cluster.forwarded", "count"},
		spec{"cluster.dropped", "count"}, spec{"cluster.throttled", "count"})
}()

// bench runs and checks the passes of one workload at one seed.
type bench struct {
	w         *workload
	seed      uint64
	out, errs io.Writer
	first     *pass // the first checked pass: every later one must match it
	attempted int
	failed    int
}

// usage is what one pass cost the process.
type usage struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
}

// metered runs one pass of the workload from a collected heap. A non-nil
// wrap runs the pass inside a profiler.
func (b *bench) metered(groups int, wrap func(run func())) (pass, usage) {
	var p pass
	run := func() { p = b.w.run(b.seed, groups) }
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	if wrap != nil {
		wrap(run)
	} else {
		run()
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	if p.finish != nil {
		t := time.Now()
		p.arms = p.finish()
		p.extract = time.Since(t)
	}
	return p, usage{wall: wall, cpu: cpu, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// check checks a pass, logs its failures and counts its arms.
func (b *bench) check(p pass) {
	errs := checkPass(b.w, b.seed, p, b.first)
	b.attempted += len(errs)
	for _, err := range errs {
		if err != nil {
			b.failed++
			fmt.Fprintln(b.errs, "check failed:", err)
		}
	}
	if b.first == nil {
		b.first = &p
	}
}

// setupTime times builds before the first simulated event, in samples of
// setupBatch builds. It returns the median wall time of one build, and
// the median of each sample divided by the mean of the one-goroutine
// reference runs around it, in seconds at referenceNominal.
func (b *bench) setupTime(samples int) (wall, nominal float64, err error) {
	b.w.setup(b.seed) // warm-up
	var walls, nominals []float64
	ref, _, err := reference(1)
	for i := 0; i < samples && err == nil; i++ {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < b.w.setupBatch; k++ {
			b.w.setup(b.seed)
		}
		one := time.Since(t0).Seconds() / float64(b.w.setupBatch)
		var next time.Duration
		next, _, err = reference(1)
		walls = append(walls, one)
		nominals = append(nominals, one/((ref+next).Seconds()/2)*referenceNominal.Seconds())
		ref = next
	}
	return median(walls), median(nominals), err
}

// untraced measures the end-to-end metrics: passes repeat until the next
// one would overrun the budget, at least three. Each pass's host and CPU
// time is divided by the mean of the reference runs just before and just
// after it (reference.go).
func (b *bench) untraced(budget time.Duration) (map[string]float64, error) {
	setupRaw, setup, err := b.setupTime(15)
	if err != nil {
		return nil, err
	}
	var host, hostRef, cpuRef, allocs, mb []float64
	refWall, refCPU, err := reference(b.w.cores)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for n := 0; ; n++ {
		p, u := b.metered(b.w.cores, nil)
		b.check(p)
		w, c, err := reference(b.w.cores)
		if err != nil {
			return nil, err
		}
		host = append(host, p.run.Seconds())
		hostRef = append(hostRef, p.run.Seconds()/((refWall+w).Seconds()/2))
		cpuRef = append(cpuRef, u.cpu.Seconds()/((refCPU+c).Seconds()/2))
		refWall, refCPU = w, c
		allocs = append(allocs, float64(u.allocs))
		mb = append(mb, float64(u.bytes)/(1<<20))
		if n >= 2 && time.Since(start)+u.wall+w > budget {
			break
		}
	}
	fmt.Fprintf(b.out, "%d passes, host_s %.3f, host_ref %.3f, setup raw %.6f\n", len(host), host, hostRef, setupRaw)
	return map[string]float64{
		"host_ref": median(hostRef), "setup_s": setup, "cpu_ref": median(cpuRef),
		"allocs": median(allocs), "alloc_mb": median(mb), "max_rss_mb": maxRSSMB(),
	}, nil
}

// traced measures the per-layer metrics. Untraced and CPU-profiled passes
// alternate until the budget is spent; one more pass samples allocations;
// the PDES world also runs once at one executor group. Every pass must
// give the first pass's digests.
func (b *bench) traced(budget time.Duration) (map[string]float64, error) {
	build, _, err := b.setupTime(3)
	if err != nil {
		return nil, err
	}
	var host, profiled, checkS, refs []float64
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var profiles []string
	start := time.Now()
	for {
		w, _, err := reference(b.w.cores)
		if err != nil {
			return nil, err
		}
		refs = append(refs, w.Seconds())
		p, u := b.metered(b.w.cores, nil)
		c0 := time.Now()
		b.check(p)
		checkS = append(checkS, (time.Since(c0) + p.extract).Seconds())
		host = append(host, p.run.Seconds())
		if p.build > 0 {
			build = p.build.Seconds()
		}

		path := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", len(profiles)))
		pp, _ := b.metered(b.w.cores, func(run func()) { err = cpuProfile(path, run) })
		if err != nil {
			return nil, err
		}
		b.check(pp)
		profiles = append(profiles, path)
		profiled = append(profiled, pp.run.Seconds())
		if time.Since(start)+2*u.wall > budget {
			break
		}
	}
	var allocs map[string]float64
	ap, _ := b.metered(b.w.cores, func(run func()) { allocs = allocProfile(run) })
	b.check(ap)
	cpu, err := foldCPUProfiles(profiles...)
	if err != nil {
		return nil, err
	}

	m := counters(*b.first)
	for _, l := range layers {
		m[l+".cpu_s"] = cpu[l] / float64(len(profiled))
		m[l+".allocs"] = allocs[l]
	}
	m["span.build_s"] = build
	m["span.run_s"] = median(host)
	m["span.check_s"] = median(checkS)
	m["ref_s"] = median(refs)
	m["profile.overhead_s"] = median(profiled) - median(host)
	if b.w.cores > 1 { // the same run at one executor group
		p, _ := b.metered(1, nil)
		b.check(p)
		m["sim.g1_host_s"] = p.run.Seconds()
		m["sim.group_speedup"] = p.run.Seconds() / median(host)
	}
	return m, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
