package chipletnet

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// normalizeCompiled clears the flag that legitimately differs between the
// two runs so the Result hashes compare everything else.
func normalizeCompiled(res Result) Result {
	res.Cfg.CompiledRouting = false
	return res
}

// TestCompiledEngineEquivalence is the differential gate for the compiled
// routing tables: across every topology kind, both routing modes, every
// interleave granularity, and fault schedules up to permanent kills, a run
// on certified flat-array tables must produce a Result hash-identical to
// the per-hop interpreted routing's. Any divergence means the tables (or
// the certifying traversal that compiled them) missed a state or reordered
// a candidate — a certifier bug by definition.
func TestCompiledEngineEquivalence(t *testing.T) {
	topos := []struct {
		name    string
		topo    Topology
		modes   []RoutingMode
		grouped bool
	}{
		{"mesh", MeshTopology(2, 2), []RoutingMode{RoutingDuato}, false},
		{"hypercube", HypercubeTopology(3), []RoutingMode{RoutingDuato, RoutingSafeUnsafe}, true},
		{"ndtorus", NDTorusTopology(4, 4), []RoutingMode{RoutingDuato}, true},
		{"dragonfly", DragonflyTopology(4), []RoutingMode{RoutingDuato, RoutingSafeUnsafe}, true},
		{"tree", TreeTopology(5, 2), []RoutingMode{RoutingDuato}, true},
		{"custom", CustomTopology(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}),
			[]RoutingMode{RoutingSafeUnsafe}, true},
	}
	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range tc.modes {
				for _, il := range []string{"none", "message", "packet"} {
					base := equivConfig(tc.topo)
					base.Routing = mode
					base.Interleave = il

					faulty := base
					faulty.Fault.BER = 5e-4
					if sys, err := Build(base); err == nil {
						if pairs := sys.Topo.CrossPairs(); len(pairs) > 0 {
							faulty.Fault.Degrade = []FaultDegrade{
								{Cycle: 120, A: pairs[0].A, B: pairs[0].B, BandwidthDiv: 2, LatencyMult: 2},
							}
							if tc.grouped {
								p := pairs[len(pairs)-1]
								faulty.Fault.Kill = []FaultKill{{Cycle: 150, A: p.A, B: p.B}}
							}
						}
					}

					cases := []struct {
						name string
						cfg  Config
					}{{"no-faults", base}, {"faults", faulty}}
					if tc.grouped {
						// Build-time SerDes faults: tables are compiled
						// against the already-shrunk group membership.
						degraded := base
						degraded.CrossLinkFaultFraction = 0.2
						cases = append(cases, struct {
							name string
							cfg  Config
						}{"serdes-faults", degraded})
					}
					for _, cc := range cases {
						name := fmt.Sprintf("%s/%s/%s", mode, il, cc.name)
						t.Run(name, func(t *testing.T) {
							interpreted := cc.cfg
							compiled := cc.cfg
							compiled.CompiledRouting = true
							intRes, intErr := Run(context.Background(), interpreted, RunControl{})
							cmpRes, cmpErr := Run(context.Background(), compiled, RunControl{})
							if errText(intErr) != errText(cmpErr) {
								t.Fatalf("errors differ: interpreted %q, compiled %q", errText(intErr), errText(cmpErr))
							}
							if intErr != nil {
								return
							}
							if gobHash(t, normalizeCompiled(intRes)) != gobHash(t, normalizeCompiled(cmpRes)) {
								t.Errorf("Results differ between interpreted and compiled routing\ninterpreted: %s\n   compiled: %s",
									resultJSON(t, intRes), resultJSON(t, cmpRes))
							}
						})
					}
				}
			}
		})
	}
}

// TestCompiledRefusesUncertified proves an uncertified configuration never
// gets tables: the equal-channel nD-mesh demonstration mode has a cyclic
// escape CDG, so Build with CompiledRouting must fail even though the
// interpreted opt-in (AllowUnsafeRouting) accepts it.
func TestCompiledRefusesUncertified(t *testing.T) {
	cfg := equivConfig(NDMeshTopology(3, 2, 2))
	cfg.DisableNDMeshVCSeparation = true
	cfg.AllowUnsafeRouting = true
	if _, err := Build(cfg); err != nil {
		t.Fatalf("interpreted equal-channel build should succeed under the opt-in: %v", err)
	}
	cfg.CompiledRouting = true
	_, err := Build(cfg)
	if err == nil {
		t.Fatal("compiled build of an uncertified configuration must fail")
	}
	if !strings.Contains(err.Error(), "refusing to compile uncertified routing") {
		t.Fatalf("error should name the certification refusal, got: %v", err)
	}
}
