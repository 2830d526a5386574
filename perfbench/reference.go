package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference kernel is the benchmark's own fixed piece of work —
// sorting, a map and a linked list, allocating a few MB and so keeping
// the garbage collector busy on the second core as the simulator does —
// that never changes with the simulator. On a shared virtual machine
// (2 vCPUs with steal time and neighbours on the same cores) the speed
// drifts by a quarter within minutes, and that drift moves a pass and a
// reference run measured next to it alike. So the timed metrics are
// reported relative to the reference time taken just before and just
// after each measurement: a change to the simulator moves them, a change
// in the machine's speed mostly does not.
//
// The kernel runs in a child process (this binary with --reference), so
// its heap neither shifts the passes' GC pacing nor raises their RSS.

const (
	referenceItems = 200_000
	referenceReps  = 2
	// referenceNominal turns set-up time relative to the reference back
	// into seconds: setup_s is the set-up time on a machine on which one
	// reference run takes this long (about one run on a quiet 2-vCPU Xeon
	// virtual machine). The benchmark's manifest fixes setup_s in seconds,
	// so it cannot be a plain ratio like host_ref; and raw set-up seconds
	// swing by 40% within two minutes on a shared 2-vCPU virtual machine,
	// where the relative figure moves by about 10%. The raw median is
	// printed in the log.
	referenceNominal = 110 * time.Millisecond
)

type refNode struct {
	next *refNode
	v    int
}

func referenceKernel() int {
	r := rand.New(rand.NewSource(1))
	xs := make([]int, referenceItems)
	for i := range xs {
		xs[i] = r.Int()
	}
	sort.Ints(xs)
	m := map[int]int{}
	var head *refNode
	for i, x := range xs {
		head = &refNode{next: head, v: x}
		m[x&0xffff] += i
	}
	sum := len(m)
	for n := head; n != nil; n = n.next {
		sum += n.v & 7
	}
	return sum
}

// runReference is the child's side: one untimed warm-up, then the timed
// kernel on the given number of goroutines. It prints the wall and
// process CPU nanoseconds of the timed part.
func runReference(threads int, stdout io.Writer) error {
	if threads < 1 {
		return fmt.Errorf("--reference needs at least one goroutine, got %d", threads)
	}
	referenceKernel()
	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	sums := make([]int, threads)
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < referenceReps; k++ {
				sums[g] += referenceKernel()
			}
		}(g)
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-c0
	for _, s := range sums {
		if s != sums[0] {
			return fmt.Errorf("reference kernel is not deterministic: %v", sums)
		}
	}
	_, err := fmt.Fprintf(stdout, "%d %d\n", wall.Nanoseconds(), cpu.Nanoseconds())
	return err
}

// reference runs the kernel in a child process on as many goroutines as
// the measured work keeps busy, and returns its wall and CPU time.
func reference(threads int) (wall, cpu time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	out, err := exec.Command(exe, "--reference", strconv.Itoa(threads)).Output()
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	var w, c int64
	if _, err := fmt.Sscan(string(out), &w, &c); err != nil {
		return 0, 0, fmt.Errorf("reference: reading %q: %w", out, err)
	}
	return time.Duration(w), time.Duration(c), nil
}
