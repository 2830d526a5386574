package credit

import (
	"testing"
	"testing/quick"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Property: a capped VCPU never consumes more than cap × elapsed (+ one
// accounting period of slop), even on an otherwise idle host.
func TestQuickCapEnforcement(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		capPct := 10 + rng.Int63n(60) // 10–70%
		s := sim.New(seed)
		cfg := DefaultConfig()
		h := hv.NewHost(s, 1, New(cfg), hv.CostModel{})
		gc := guest.Config{CrossLayer: false, VCPUCapacity: 1e9}
		g, err := guest.NewOS(h, "capped", gc, 0)
		if err != nil {
			return false
		}
		capRes := hv.Reservation{
			Budget: simtime.Duration(capPct) * simtime.Millis(10) / 100,
			Period: simtime.Millis(10),
		}
		if _, err := g.AddVCPU(capRes, 256); err != nil {
			return false
		}
		hog := task.NewBackground(0, "hog")
		if err := g.Register(hog); err != nil {
			return false
		}
		h.Start()
		s.After(0, func(now simtime.Time) { g.ReleaseJob(hog, simtime.Seconds(1000)) })
		dur := simtime.Seconds(3)
		s.RunFor(dur)
		h.Sync()
		run := g.VM().TotalRun()
		entitled := simtime.Duration(float64(dur) * float64(capPct) / 100)
		return run <= entitled+cfg.AccountPeriod
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: weights partition a saturated host proportionally (within
// 15%), for random weight pairs.
func TestQuickWeightProportionality(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		wA := 100 + rng.Intn(900)
		wB := 100 + rng.Intn(900)
		s := sim.New(seed)
		cfg := DefaultConfig()
		h := hv.NewHost(s, 1, New(cfg), hv.CostModel{})
		mk := func(name string, w int) *guest.OS {
			gc := guest.Config{CrossLayer: false, VCPUCapacity: 1e9}
			g, err := guest.NewOS(h, name, gc, 0)
			if err != nil {
				return nil
			}
			if _, err := g.AddVCPU(hv.Reservation{Period: simtime.Millis(10)}, w); err != nil {
				return nil
			}
			return g
		}
		gA, gB := mk("a", wA), mk("b", wB)
		if gA == nil || gB == nil {
			return false
		}
		ha := task.NewBackground(0, "a")
		hb := task.NewBackground(1, "b")
		if gA.Register(ha) != nil || gB.Register(hb) != nil {
			return false
		}
		h.Start()
		s.After(0, func(now simtime.Time) { gA.ReleaseJob(ha, simtime.Seconds(1000)) })
		s.After(0, func(now simtime.Time) { gB.ReleaseJob(hb, simtime.Seconds(1000)) })
		s.RunFor(simtime.Seconds(10))
		h.Sync()
		runA, runB := float64(gA.VM().TotalRun()), float64(gB.VM().TotalRun())
		if runA == 0 || runB == 0 {
			return false
		}
		got := runA / runB
		want := float64(wA) / float64(wB)
		return got > want*0.85 && got < want*1.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
