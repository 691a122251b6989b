package chipletnet

import (
	"context"
	"math"
	"testing"
)

// Timing audit (parallel-islands PR): every assertion in this file is a
// cycle-count or deterministic-metric bound — no wall-clock waits,
// sleeps or timeouts — so a slower run (e.g. -race with the islands
// engine's per-cycle barriers) cannot flake it. Keep it that way: new
// assertions must be phrased in simulated cycles, never real time.

// satCfg is a small fast workload for bisection edge cases.
func satCfg() Config {
	cfg := DefaultConfig()
	cfg.Topology = HypercubeTopology(3)
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 250
	cfg.DrainCycles = 30000
	return cfg
}

// TestSaturationRateEdgeCases covers the bisection's degenerate inputs:
// a lower bound that is already saturated (the all-saturated series —
// the search must report 0, not probe forever), an upper bound that is
// still stable (single-probe short circuit returning hi), and an invalid
// configuration surfacing the validation error instead of running.
func TestSaturationRateEdgeCases(t *testing.T) {
	cfg := satCfg()

	// Without a drain phase, end-of-window in-flight traffic counts
	// against accepted throughput, so overload rates register as
	// saturated even at this short window: with lo already saturated the
	// answer is 0 and no bisection happens.
	undrained := cfg
	undrained.DrainCycles = 0
	sat, err := SaturationRate(undrained, 1.0, 1.9, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sat != 0 {
		t.Errorf("saturated lower bound: got %g, want 0", sat)
	}

	// Both bounds stable: the search returns hi without bisecting.
	sat, err = SaturationRate(cfg, 0.01, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sat != 0.05 {
		t.Errorf("stable upper bound: got %g, want hi=0.05", sat)
	}

	bad := cfg
	bad.VCs = 0
	if _, err := SaturationRate(bad, 0.1, 1.0, 0.1); err == nil {
		t.Error("invalid configuration did not surface a validation error")
	}
}

// TestSaturationRateWarmReuseMatchesColdRuns replays the warm-path
// bisection (Build once, Reset between probes) by hand with fresh Run
// calls: both searches must probe the same rates with the same verdicts
// and land on the same saturation estimate.
func TestSaturationRateWarmReuseMatchesColdRuns(t *testing.T) {
	cfg := satCfg()
	cfg.DrainCycles = 0 // mixed stable/saturated verdicts: a real bisection
	lo, hi, tol := 0.01, 1.9, 0.15

	warm, err := SaturationRate(cfg, lo, hi, tol)
	if err != nil {
		t.Fatal(err)
	}

	// The cold oracle: the same bisection, each probe a fresh Build+Run.
	stable := func(rate float64) bool {
		c := cfg
		c.InjectionRate = rate
		res, err := Run(context.Background(), c, RunControl{})
		if err != nil {
			t.Fatal(err)
		}
		return !res.Saturated()
	}
	cold := 0.0
	if stable(lo) {
		if stable(hi) {
			cold = hi
		} else {
			for hi-lo > tol {
				mid := (lo + hi) / 2
				if stable(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
			cold = lo
		}
	}
	if math.Abs(warm-cold) > 1e-12 {
		t.Errorf("warm-reuse bisection found %g, cold bisection %g", warm, cold)
	}
}

// TestSaturationRateColdPathWithKillSchedule: a structure-mutating fault
// schedule must force the rebuild-per-probe path (Reset cannot undo a
// kill) and still complete.
func TestSaturationRateColdPathWithKillSchedule(t *testing.T) {
	cfg := satCfg()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := sys.Topo.CrossPairs()
	if len(pairs) == 0 {
		t.Fatal("hypercube has no cross-chiplet pairs")
	}
	p := pairs[len(pairs)-1]
	cfg.Fault.Kill = []FaultKill{{Cycle: 100, A: p.A, B: p.B}}

	sat, err := SaturationRate(cfg, 0.01, 0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 {
		t.Errorf("kill-schedule search found %g, want a positive stable rate", sat)
	}
	// The estimate must itself be stable under the same fault schedule.
	probe := cfg
	probe.InjectionRate = sat
	res, err := Run(context.Background(), probe, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated() {
		t.Errorf("reported rate %g is itself saturated", sat)
	}
}
