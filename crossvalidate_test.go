package chipletnet

import (
	"context"
	"fmt"
	"testing"

	"chipletnet/internal/verify"
)

// saturate runs cfg briefly at a deadlock-hunting operating point: high
// load, a tight watchdog, and enough cycles for the watchdog to speak.
func saturate(t *testing.T, cfg Config, pattern string) Result {
	t.Helper()
	cfg.Pattern = pattern
	cfg.InjectionRate = 0.9
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1800
	cfg.DeadlockThreshold = 500
	res, err := Run(context.Background(), cfg, RunControl{})
	if err != nil {
		t.Fatalf("%v / %s: %v", cfg.Topology, pattern, err)
	}
	return res
}

// TestVerifierMatchesWatchdogOnSafeConfigs cross-validates the static
// verifier against the runtime deadlock watchdog: every configuration the
// verifier passes must survive a short saturating simulation without
// tripping the watchdog.
func TestVerifierMatchesWatchdogOnSafeConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("saturating cross-validation is not short")
	}
	cases := []struct {
		topo Topology
		mode RoutingMode
	}{
		{MeshTopology(3, 3), RoutingDuato},
		{HypercubeTopology(4), RoutingDuato},
		{HypercubeTopology(4), RoutingSafeUnsafe},
		{NDMeshTopology(4, 2, 2), RoutingDuato},
		{NDMeshTopology(4, 2, 2), RoutingSafeUnsafe},
		{NDTorusTopology(4, 3), RoutingDuato},
		{DragonflyTopology(6), RoutingDuato},
		{TreeTopology(7, 2), RoutingSafeUnsafe},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%v-%s", tc.topo, tc.mode), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Topology = tc.topo
			cfg.Routing = tc.mode
			rep, err := VerifyConfig(cfg, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("verifier rejected a known-good config:\n%s", rep)
			}
			for _, pattern := range []string{"uniform", "bit-reverse"} {
				res := saturate(t, cfg, pattern)
				if res.Deadlocked {
					t.Errorf("verified-safe config tripped the watchdog under %s:\n%v",
						pattern, res.Cfg.Topology)
				}
			}
		})
	}
}

// TestVerifierFlagsKnownBadConfig: the other direction of the
// cross-validation — the configuration Theorem 1 proves deadlock-prone
// (equal-channel nD-mesh under Duato's protocol) must be rejected before
// simulation, with a concrete channel-dependency-cycle witness.
func TestVerifierFlagsKnownBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = NDMeshTopology(4, 2, 2)
	cfg.DisableNDMeshVCSeparation = true
	cfg.AllowUnsafeRouting = true
	rep, err := VerifyConfig(cfg, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatalf("equal-channel mode passed verification:\n%s", rep)
	}
	if len(rep.Cycle) == 0 {
		t.Fatalf("no dependency-cycle witness:\n%s", rep)
	}
	for i, e := range rep.Cycle {
		if next := rep.Cycle[(i+1)%len(rep.Cycle)]; e.To != next.From {
			t.Errorf("witness not closed at edge %d: %v then %v", i, e, next)
		}
	}
}
