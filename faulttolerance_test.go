package chipletnet

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"chipletnet/internal/fault"
	"chipletnet/internal/rng"
	"chipletnet/internal/verify"
)

// faultTestConfig returns a small fast configuration for fault tests.
func faultTestConfig(topo Topology) Config {
	cfg := DefaultConfig()
	cfg.Topology = topo
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 600
	cfg.DrainCycles = 30000
	cfg.CheckCredits = true
	return cfg
}

// TestKilledCrossLinkPerTopology kills one inter-chiplet channel mid-run in
// every built topology and requires one of exactly two outcomes: the run
// reroutes and drains completely with bounded latency inflation, or it ends
// with the typed ErrPartitioned — it must never hang the watchdog or lose a
// packet.
func TestKilledCrossLinkPerTopology(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"hypercube", HypercubeTopology(3)},
		{"ndmesh", NDMeshTopology(2, 2)},
		{"dragonfly", DragonflyTopology(4)},
		{"tree", TreeTopology(5, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := faultTestConfig(tc.topo)
			baseline, err := Run(context.Background(), base, RunControl{})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if baseline.Deadlocked {
				t.Fatal("baseline deadlocked")
			}

			sys, err := Build(base)
			if err != nil {
				t.Fatal(err)
			}
			pairs := sys.Topo.CrossPairs()
			if len(pairs) == 0 {
				t.Fatal("no cross links")
			}
			cfg := base
			cfg.Fault.Kill = []FaultKill{{Cycle: 300, A: pairs[0].A, B: pairs[0].B}}
			res, err := Run(context.Background(), cfg, RunControl{})
			if err != nil {
				if !errors.Is(err, fault.ErrPartitioned) {
					t.Fatalf("untyped failure: %v", err)
				}
				return // a refused kill is a legal outcome
			}
			if res.Deadlocked {
				t.Fatalf("deadlocked after kill: %v", res.DeadlockReport)
			}
			if !res.Drained || res.InFlightAtEnd != 0 {
				t.Fatalf("did not drain: drained=%v inflight=%d", res.Drained, res.InFlightAtEnd)
			}
			st := res.FaultStats
			if st == nil {
				t.Fatal("no fault stats")
			}
			if st.LostPackets != 0 || st.DuplicatePackets != 0 {
				t.Fatalf("lost=%d dup=%d, want 0/0", st.LostPackets, st.DuplicatePackets)
			}
			if st.LinksKilled != 1 {
				t.Fatalf("links killed = %d, want 1", st.LinksKilled)
			}
			// Bounded latency inflation: the degraded network stays in the
			// same regime as the baseline (generous bound to keep the test
			// robust across schedule noise at low load).
			if baseline.AvgLatency > 0 && res.AvgLatency > 5*baseline.AvgLatency {
				t.Errorf("latency inflated %.1f -> %.1f (>5x)", baseline.AvgLatency, res.AvgLatency)
			}
		})
	}
}

// TestFaultAcceptanceHypercube is the PR's acceptance scenario: a
// saturating uniform-random run on the 4-dimensional hypercube with
// BER 1e-4 on the D2D links and one permanent interface failure in every
// group of chiplet 0. It must complete with zero lost or duplicated
// packets, report retransmissions and rerouted packets, and the degraded
// topology must still pass static verification.
func TestFaultAcceptanceHypercube(t *testing.T) {
	cfg := faultTestConfig(HypercubeTopology(4))
	cfg.InjectionRate = 0.5 // beyond saturation for this setup
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1500
	cfg.DrainCycles = 60000
	cfg.Fault.BER = 1e-4

	// One interface failure per group of chiplet 0, staggered mid-run.
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip0 := sys.Topo.Chiplets[0]
	for g, members := range chip0.Groups {
		// Kill the last member so minus-only rides toward it exercise the
		// condemned-fallback path.
		a := members[len(members)-1]
		pa := sys.Topo.CrossPort(a)
		if pa < 0 {
			t.Fatalf("group %d member %d has no cross port", g, a)
		}
		b := sys.Topo.Nodes[a].Ports[pa].To
		cfg.Fault.Kill = append(cfg.Fault.Kill, FaultKill{Cycle: int64(400 + 100*g), A: a, B: b})
	}

	res, err := Run(context.Background(), cfg, RunControl{})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Deadlocked {
		t.Fatalf("deadlocked: %v", res.DeadlockReport)
	}
	if !res.Drained || res.InFlightAtEnd != 0 {
		t.Fatalf("did not drain: drained=%v inflight=%d", res.Drained, res.InFlightAtEnd)
	}
	st := res.FaultStats
	if st == nil {
		t.Fatal("no fault stats")
	}
	if st.LostPackets != 0 || st.DuplicatePackets != 0 {
		t.Fatalf("lost=%d dup=%d, want 0/0", st.LostPackets, st.DuplicatePackets)
	}
	if st.Retransmissions == 0 || st.CorruptedBundles == 0 {
		t.Errorf("BER 1e-4 produced no retransmissions: %+v", *st)
	}
	if st.ReroutedPackets == 0 {
		t.Error("interface failures rerouted no packets")
	}
	if st.LinksKilled != len(chip0.Groups) {
		t.Errorf("links killed = %d, want %d", st.LinksKilled, len(chip0.Groups))
	}
	if len(res.FaultEvents) == 0 {
		t.Error("empty fault event log")
	}

	// The degraded topology must pass the static verifier, full strength.
	degraded, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cfg.Fault.Kill {
		if err := degraded.Topo.FailCrossLink(k.A, k.B); err != nil {
			t.Fatalf("replaying kill %d-%d: %v", k.A, k.B, err)
		}
	}
	if rep := degraded.VerifyRouting(verify.Options{}); rep.Err() != nil {
		t.Errorf("degraded topology fails verification: %v", rep.Err())
	}
}

// TestFaultsDisabledDeterminism: the fault machinery must be invisible when
// disabled — two fault-free runs of the same seed produce identical
// results, and no fault state leaks into the Result.
func TestFaultsDisabledDeterminism(t *testing.T) {
	cfg := faultTestConfig(HypercubeTopology(3))
	cfg.CheckCredits = false
	cfg.DrainCycles = 0
	a, err := Run(context.Background(), cfg, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultStats != nil || len(a.FaultEvents) != 0 {
		t.Error("fault state in a fault-free Result")
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("fault-free runs diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	// And the same seed with the audit enabled must not change results
	// either (the audit only observes).
	cfg.CheckCredits = true
	c, err := Run(context.Background(), cfg, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Summary, c.Summary) {
		t.Errorf("credit audit changed results:\n%+v\n%+v", a.Summary, c.Summary)
	}
}

// TestFaultSchedulePartitionTyped: killing both channels of a two-member
// group must end with ErrPartitioned, not a hang.
func TestFaultSchedulePartitionTyped(t *testing.T) {
	cfg := faultTestConfig(HypercubeTopology(3))
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every channel of group 0 of chiplet 0, one per cycle: at some
	// point the group would disconnect and the engine must refuse.
	for i, a := range sys.Topo.Chiplets[0].Groups[0] {
		pa := sys.Topo.CrossPort(a)
		b := sys.Topo.Nodes[a].Ports[pa].To
		cfg.Fault.Kill = append(cfg.Fault.Kill, FaultKill{Cycle: int64(200 + i), A: a, B: b})
	}
	_, err = Run(context.Background(), cfg, RunControl{})
	if err == nil {
		t.Fatal("killing a whole group did not error")
	}
	if !errors.Is(err, fault.ErrPartitioned) {
		t.Fatalf("got %v, want ErrPartitioned", err)
	}
}

// FuzzFaultSchedule drives random seeded fault schedules (BER plus up to
// three kills and one derating at random cycles) on a small hypercube.
// Every schedule must end in a clean drain with zero lost or duplicated
// packets, or a typed error — never a hang and never an untyped failure.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(20260806))
	f.Add(uint64(0xfa17))
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		cfg := faultTestConfig(HypercubeTopology(3))
		cfg.Seed = seed
		cfg.WarmupCycles = 50
		cfg.MeasureCycles = 400
		cfg.DrainCycles = 40000
		cfg.InjectionRate = 0.05 + 0.4*r.Float64()
		if r.Bernoulli(0.5) {
			cfg.Routing = RoutingSafeUnsafe
		}
		// BER up to 2e-3 off-chip, occasionally on-chip too.
		cfg.Fault.BER = r.Float64() * 2e-3
		if r.Bernoulli(0.3) {
			cfg.Fault.OnChipBER = r.Float64() * 1e-4
		}
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs := sys.Topo.CrossPairs()
		for i, n := 0, r.Intn(4); i < n; i++ {
			p := pairs[r.Intn(len(pairs))]
			cfg.Fault.Kill = append(cfg.Fault.Kill,
				FaultKill{Cycle: int64(60 + r.Intn(400)), A: p.A, B: p.B})
		}
		if r.Bernoulli(0.5) {
			p := pairs[r.Intn(len(pairs))]
			cfg.Fault.Degrade = append(cfg.Fault.Degrade, FaultDegrade{
				Cycle: int64(60 + r.Intn(400)), A: p.A, B: p.B,
				BandwidthDiv: 1 + r.Intn(3), LatencyMult: 1 + r.Intn(3),
			})
		}

		res, err := Run(context.Background(), cfg, RunControl{})
		if err != nil {
			if errors.Is(err, fault.ErrPartitioned) ||
				errors.Is(err, fault.ErrDegradedUnsafe) ||
				errors.Is(err, fault.ErrBadSchedule) {
				return // typed refusal is a legal outcome
			}
			t.Fatalf("untyped failure: %v", err)
		}
		if res.Deadlocked {
			t.Fatalf("deadlocked: %v (schedule %+v)", res.DeadlockReport, cfg.Fault)
		}
		if !res.Drained || res.InFlightAtEnd != 0 {
			t.Fatalf("did not drain: inflight=%d (schedule %+v)", res.InFlightAtEnd, cfg.Fault)
		}
		if st := res.FaultStats; st != nil && (st.LostPackets != 0 || st.DuplicatePackets != 0) {
			t.Fatalf("lost=%d dup=%d (schedule %+v)", st.LostPackets, st.DuplicatePackets, cfg.Fault)
		}
	})
}
