package chipletnet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chipletnet/internal/checkpoint"
	"chipletnet/internal/rng"
	"chipletnet/internal/verify"
)

// TestRandomConfigurationsAreRobust drives the whole stack through a
// deterministic pseudo-random walk of the configuration space: any
// configuration that Build accepts must simulate without panic, without
// deadlock, and deliver traffic. Rejections are fine; crashes are not.
func TestRandomConfigurationsAreRobust(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 20
	}
	r := rng.New(20260706)
	accepted := 0
	for i := 0; i < iterations; i++ {
		cfg := randomConfig(r)
		sys, err := Build(cfg)
		if err != nil {
			continue // invalid combinations may be rejected, not crash
		}
		accepted++
		res, err := sys.Simulate()
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, cfg.Topology, err)
		}
		if res.Deadlocked {
			t.Errorf("config %d deadlocked: topo=%v W=%d H=%d vcs=%d mode=%s pattern=%s il=%s",
				i, cfg.Topology, cfg.ChipletW, cfg.ChipletH, cfg.VCs, cfg.Routing, cfg.Pattern, cfg.Interleave)
		}
		if res.MeasuredPackets == 0 && cfg.InjectionRate > 0.05 {
			t.Errorf("config %d delivered nothing: topo=%v rate=%.2f", i, cfg.Topology, cfg.InjectionRate)
		}
	}
	if accepted < iterations/3 {
		t.Errorf("only %d of %d random configs accepted; generator too wild", accepted, iterations)
	}
}

// FuzzVerifyMatchesWatchdog fuzzes the static verifier against the runtime
// watchdog: for every random buildable configuration the verifier clears,
// a short saturating simulation must not trip the deadlock watchdog. (The
// converse is not checkable — a finite run missing a deadlock proves
// nothing — so the fuzz oracle is one-sided, matching the theory: the
// criterion is sufficient, not necessary.)
func FuzzVerifyMatchesWatchdog(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(20260806))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := randomConfig(rng.New(seed))
		cfg.InjectionRate = 0.9
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 1300
		cfg.DeadlockThreshold = 500
		sys, err := Build(cfg)
		if err != nil {
			t.Skip() // invalid combinations may be rejected, not crash
		}
		rep := sys.VerifyRouting(verify.Options{MaxDests: 16, MaxSources: 8})
		if rep.Err() != nil {
			t.Skip() // not certified: the runtime guarantee is out of scope
		}
		res, err := sys.Simulate()
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg.Topology, err)
		}
		if res.Deadlocked {
			t.Errorf("seed %d: verifier passed but watchdog fired: topo=%v W=%d H=%d vcs=%d mode=%s pattern=%s",
				seed, cfg.Topology, cfg.ChipletW, cfg.ChipletH, cfg.VCs, cfg.Routing, cfg.Pattern)
		}
	})
}

// FuzzCheckpointRoundTrip fuzzes the resume guarantee over the random
// configuration space: interrupt a run at an arbitrary cycle, resume from
// the written checkpoint, and the finish must be bit-identical to the
// uninterrupted run — Result and error alike. Then flip one arbitrary
// byte of the checkpoint file: the load must fail with one of the typed
// checkpoint errors, never panic, never silently succeed.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(50), uint64(7))
	f.Add(uint64(20260806), int64(250), uint64(1000))
	f.Add(uint64(0xdeadbeef), int64(310), uint64(31))
	f.Fuzz(func(t *testing.T, seed uint64, stopCycle int64, corrupt uint64) {
		cfg := randomConfig(rng.New(seed))
		cfg.WarmupCycles = 60
		cfg.MeasureCycles = 240
		cfg.DrainCycles = 20000
		if seed%3 == 0 {
			cfg.Fault.BER = 5e-4
		}
		if _, err := Build(cfg); err != nil {
			t.Skip() // invalid combinations may be rejected, not crash
		}
		refRes, refErr := Run(context.Background(), cfg, RunControl{})
		stop := 1 + ((stopCycle%400)+400)%400 // within warm-up, measurement, or early drain

		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		_, err := Run(context.Background(), cfg, RunControl{CheckpointPath: path, InterruptAtCycle: stop})
		if !errors.Is(err, ErrInterrupted) {
			t.Skip() // run ended (error or empty drain) before the interrupt cycle
		}
		res, err := Resume(context.Background(), path, RunControl{})
		if errText(err) != errText(refErr) {
			t.Fatalf("seed %d stop %d: resumed error %q, uninterrupted %q", seed, stop, errText(err), errText(refErr))
		}
		if got, want := resultJSON(t, res), resultJSON(t, refRes); got != want {
			t.Errorf("seed %d stop %d: resumed Result differs\n got: %s\nwant: %s", seed, stop, got, want)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[corrupt%uint64(len(data))] ^= 0x01
		bad := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Resume(context.Background(), bad, RunControl{})
		if err == nil {
			t.Fatalf("seed %d: corrupted checkpoint (byte %d) loaded successfully", seed, corrupt%uint64(len(data)))
		}
		for _, typed := range []error{checkpoint.ErrNotCheckpoint, checkpoint.ErrVersion, checkpoint.ErrCorrupt, checkpoint.ErrMismatch} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Errorf("seed %d: corruption produced untyped error %v", seed, err)
	})
}

func randomConfig(r *rng.Rand) Config {
	cfg := DefaultConfig()
	cfg.ChipletW = 3 + r.Intn(4)
	cfg.ChipletH = 3 + r.Intn(4)
	switch r.Intn(7) {
	case 0:
		cfg.Topology = MeshTopology(1+r.Intn(3), 1+r.Intn(3))
	case 1:
		cfg.Topology = HypercubeTopology(1 + r.Intn(4))
	case 2:
		dims := make([]int, 1+r.Intn(3))
		for i := range dims {
			dims[i] = 2 + r.Intn(3)
		}
		cfg.Topology = NDMeshTopology(dims...)
	case 3:
		dims := make([]int, 1+r.Intn(2))
		for i := range dims {
			dims[i] = 3 + r.Intn(2)
		}
		cfg.Topology = NDTorusTopology(dims...)
	case 4:
		cfg.Topology = DragonflyTopology(2 * (2 + r.Intn(3)))
	case 5:
		cfg.Topology = TreeTopology(3+r.Intn(10), 1+r.Intn(3))
	case 6:
		n := 4 + r.Intn(4)
		var edges [][2]int
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{r.Intn(i), i}) // random connected tree
		}
		// A few extra edges for cycles.
		for k := 0; k < r.Intn(3); k++ {
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		cfg.Topology = CustomTopology(n, edges)
		cfg.Routing = RoutingSafeUnsafe
	}
	if r.Intn(3) == 0 {
		cfg.Routing = RoutingSafeUnsafe
	}
	cfg.VCs = 2 + r.Intn(2)
	cfg.PacketFlits = []int{8, 16, 32}[r.Intn(3)]
	cfg.MsgPackets = 1 + r.Intn(4)
	cfg.InternalBufFlits = cfg.PacketFlits * (1 + r.Intn(2))
	cfg.InterfaceBufFlits = cfg.PacketFlits * (1 + r.Intn(3))
	cfg.OnChipBW = 1 + r.Intn(4)
	cfg.OffChipBW = 1 + r.Intn(4)
	cfg.OffChipLatency = 1 + r.Intn(10)
	cfg.EjectBW = 1 + r.Intn(4)
	cfg.Pattern = append(patternChoices(), "neighbor")[r.Intn(7)]
	cfg.InjectionRate = 0.05 + r.Float64()*0.8
	cfg.Interleave = []string{"none", "message", "packet"}[r.Intn(3)]
	if r.Intn(4) == 0 && cfg.Topology.Kind != "mesh" {
		cfg.CrossLinkFaultFraction = 0.1
	}
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Seed = r.Uint64()
	return cfg
}

func patternChoices() []string {
	return []string{"uniform", "hotspot", "bit-complement", "bit-reverse", "bit-shuffle", "bit-transpose"}
}
