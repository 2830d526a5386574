package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"unicode"
)

// layers are the repository's packages, one layer each. A frame of a
// package not listed here (or of this benchmark) counts as "other".
var layers = []string{
	"eventq", "sim", "hv", "rtxen", "dpwrap", "credit", "guest", "task",
	"workload", "metrics", "csa", "dist", "cluster", "runner", "trace",
	"core", "experiments", "simtime", "runtime", "other",
}

const modulePath = "rtvirt"

// funcPackage returns the import path of a symbol name such as
// "rtvirt/internal/sched/dpwrap.(*Scheduler).rebuild" or
// "rtvirt/internal/runner.Map[go.shape.int,...]".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// repoLayer maps a repository package to its layer; ok is false for
// standard-library packages.
func repoLayer(pkg string) (layer string, ok bool) {
	if pkg == "main" {
		return "other", true
	}
	if pkg != modulePath && !strings.HasPrefix(pkg, modulePath+"/") {
		return "", false
	}
	last := pkg[strings.LastIndexByte(pkg, '/')+1:]
	for _, l := range layers {
		if l == last && l != "runtime" {
			return l, true
		}
	}
	return "other", true
}

// foldStack attributes a stack (function names, innermost first) to a
// layer. Standard-library frames fold into the nearest repository caller,
// so math under a cost draw counts as dist. With runtimeLeaf set, a stack
// whose innermost frame is in the Go runtime (allocation, GC, scheduling,
// maps, copies) stays runtime; that is the rule for CPU time. Stacks with
// no repository frame at all are runtime.
func foldStack(stack []string, runtimeLeaf bool) string {
	if len(stack) > 0 && runtimeLeaf && isRuntime(funcPackage(stack[0])) {
		return "runtime"
	}
	for _, fn := range stack {
		if l, ok := repoLayer(funcPackage(fn)); ok {
			return l
		}
	}
	return "runtime"
}

// cpuProfile samples CPU time into the file path while fn runs.
func cpuProfile(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// allocSampleBytes is the allocation profile's sampling rate in the
// traced pass: about one sample per 512 allocated bytes. Recording every
// allocation costs several microseconds each, a minute per pass on the
// larger workloads.
const allocSampleBytes = 512

// allocProfile profiles the allocations fn makes and returns allocated
// objects by layer, each stack's sampled count scaled up as pprof does.
func allocProfile(fn func()) map[string]float64 {
	prev := runtime.MemProfileRate
	runtime.GC()
	before := memRecords()
	runtime.MemProfileRate = allocSampleBytes
	fn()
	runtime.MemProfileRate = prev
	// Allocations reach the profile once a GC cycle has published them.
	runtime.GC()
	runtime.GC()
	out := map[string]float64{}
	for stk, n := range memRecords() {
		objs, bytes := n.objects-before[stk].objects, n.bytes-before[stk].bytes
		if objs <= 0 || bytes <= 0 {
			continue
		}
		avg := float64(bytes) / float64(objs)
		out[foldStack(frameNames(stk[:]), false)] += float64(objs) / (1 - math.Exp(-avg/allocSampleBytes))
	}
	return out
}

type allocCount struct{ objects, bytes int64 }

// memRecords snapshots the allocation profile by stack.
func memRecords() map[[32]uintptr]allocCount {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if !ok {
			n = m
			continue
		}
		out := make(map[[32]uintptr]allocCount, m)
		for _, r := range recs[:m] {
			c := out[r.Stack0]
			c.objects += r.AllocObjects
			c.bytes += r.AllocBytes
			out[r.Stack0] = c
		}
		return out
	}
}

// frameNames symbolizes a zero-terminated PC stack, inlined frames
// included, innermost first.
func frameNames(pcs []uintptr) []string {
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			return names
		}
	}
}

// foldCPUProfiles merges CPU profiles and sums each sample's CPU time
// into its stack's layer. The profiles are read by the toolchain's own
// pprof (`go tool pprof -traces`): the go command that builds the
// benchmark is on the PATH when it runs.
func foldCPUProfiles(paths ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, paths...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return foldTraces(string(out))
}

// tracesSeparator starts each sample of pprof -traces output.
const tracesSeparator = "-----------+"

// foldTraces folds pprof -traces output. Each sample is a block after a
// separator: "<value>   <innermost function>" and then one caller per
// line; "(inline)" marks inlined frames, and "<key>:  <values>" lines
// before the stack are labels.
func foldTraces(text string) (map[string]float64, error) {
	out := map[string]float64{}
	var stack []string
	var value float64
	flush := func() {
		if len(stack) > 0 {
			out[foldStack(stack, true)] += value
		}
		stack = nil
	}
	inSample := false
	for _, line := range strings.Split(text, "\n") {
		name := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, tracesSeparator):
			flush()
			inSample = true
			continue
		case !inSample || name == "" || len(line) > 10 && line[10] == ':':
			continue
		case len(stack) == 0:
			v, fn, _ := strings.Cut(name, " ")
			secs, err := parseSeconds(v)
			if err != nil {
				return nil, err
			}
			value, name = secs, strings.TrimSpace(fn)
		}
		stack = append(stack, strings.TrimSuffix(name, " (inline)"))
	}
	flush()
	return out, nil
}

// pprofUnits are the time units pprof prints a sample value in.
var pprofUnits = map[string]float64{"ns": 1e-9, "us": 1e-6, "μs": 1e-6, "ms": 1e-3, "s": 1, "hrs": 3600}

// parseSeconds reads a pprof time value such as "10ms" or "1.20s".
func parseSeconds(v string) (float64, error) {
	num := strings.TrimRightFunc(v, unicode.IsLetter)
	scale, ok := pprofUnits[v[len(num):]]
	x, err := strconv.ParseFloat(num, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("pprof -traces: sample value %q", v)
	}
	return x * scale, nil
}
