package verify_test

import (
	"testing"

	"chipletnet/internal/chiplet"
	"chipletnet/internal/routing"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

func testLP() topology.LinkParams {
	return topology.LinkParams{
		VCs: 2, InternalBufFlits: 32, InterfaceBufFlits: 64,
		OnChipBW: 4, OffChipBW: 2, OnChipLatency: 1, OffChipLatency: 5,
		EjectBW: 4,
	}
}

func geo(t *testing.T, w, h int) chiplet.Geometry {
	t.Helper()
	g, err := chiplet.New(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// build returns a fresh system of the named fixture topology.
func build(t *testing.T, name string) *topology.System {
	t.Helper()
	var (
		sys *topology.System
		err error
	)
	switch name {
	case "mesh-3x3":
		sys, err = topology.BuildFlatMesh(geo(t, 4, 4), 3, 3, testLP())
	case "hypercube-4":
		sys, err = topology.BuildHypercube(geo(t, 4, 4), 4, testLP())
	case "ndmesh-3x2":
		sys, err = topology.BuildNDMesh(geo(t, 4, 4), []int{3, 2}, testLP())
	case "ndmesh-3x2x2":
		sys, err = topology.BuildNDMesh(geo(t, 4, 4), []int{3, 2, 2}, testLP())
	case "ndtorus-4x3":
		sys, err = topology.BuildNDTorus(geo(t, 4, 4), []int{4, 3}, testLP())
	case "ndtorus-8x2":
		sys, err = topology.BuildNDTorus(geo(t, 4, 4), []int{8, 2}, testLP())
	case "dragonfly-6":
		sys, err = topology.BuildDragonfly(geo(t, 4, 4), 6, testLP())
	case "tree-7":
		sys, err = topology.BuildTree(geo(t, 5, 5), 7, 2, testLP())
	case "ring-5":
		sys, err = topology.BuildCustom(geo(t, 4, 4), 5,
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, testLP())
	default:
		t.Fatalf("unknown fixture %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// install constructs routing for sys and installs it on the fabric.
func install(t *testing.T, sys *topology.System, opt routing.Options) {
	t.Helper()
	rt, err := routing.New(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	sys.Fabric.Routing = rt
}

// assertCycleClosed checks the witness is a well-formed channel cycle.
func assertCycleClosed(t *testing.T, sys *topology.System, cycle []verify.DepEdge) {
	t.Helper()
	if len(cycle) < 2 {
		t.Fatalf("witness cycle too short: %v", cycle)
	}
	for i, e := range cycle {
		next := cycle[(i+1)%len(cycle)]
		if e.To != next.From {
			t.Errorf("witness not closed at edge %d: %v then %v", i, e, next)
		}
		for _, ch := range []verify.Channel{e.From, e.To} {
			if ch.From < 0 || ch.From >= len(sys.Nodes) || ch.To < 0 || ch.To >= len(sys.Nodes) {
				t.Errorf("witness channel %v outside node range", ch)
			}
			if sys.PortTo(ch.From, ch.To) < 0 {
				t.Errorf("witness channel %v is not a physical link", ch)
			}
			if ch.VC < 0 || ch.VC >= sys.LP.VCs {
				t.Errorf("witness channel %v outside VC range", ch)
			}
		}
	}
}

// TestCertifiesKnownGood: every regular builder topology must be certified
// deadlock-free in both routing modes (the acceptance fixture set).
func TestCertifiesKnownGood(t *testing.T) {
	fixtures := []string{
		"mesh-3x3", "hypercube-4", "ndmesh-3x2", "ndmesh-3x2x2",
		"ndtorus-4x3", "dragonfly-6", "tree-7",
	}
	modes := []routing.Options{{Mode: routing.DuatoEscape}, {Mode: routing.SafeUnsafe}}
	for _, name := range fixtures {
		for _, opt := range modes {
			sys := build(t, name)
			install(t, sys, opt)
			rep := verify.Run(sys, verify.Options{})
			if !rep.Certified() {
				t.Errorf("%s / %v not certified:\n%s", name, opt.Mode, rep)
			}
			if rep.States == 0 || rep.EscapeChannels == 0 {
				t.Errorf("%s / %v: empty analysis (%d states, %d channels)",
					name, opt.Mode, rep.States, rep.EscapeChannels)
			}
		}
	}
}

// TestCertifiesFaultedSystem: deterministic link faults reshape the groups;
// the surviving configuration must still verify (the pre-flight use case).
func TestCertifiesFaultedSystem(t *testing.T) {
	sys := build(t, "hypercube-4")
	if _, err := sys.FailRandomCrossLinks(0.2, 7); err != nil {
		t.Fatal(err)
	}
	install(t, sys, routing.Options{})
	rep := verify.Run(sys, verify.Options{})
	if !rep.Certified() {
		t.Errorf("faulted hypercube not certified:\n%s", rep)
	}
}

// TestFlagsEqualChannelMode: disabling the Theorem-1 d+/d- VC separation
// must be flagged with a concrete dependency-cycle witness, while the
// separated twin stays certified.
func TestFlagsEqualChannelMode(t *testing.T) {
	bad := build(t, "ndmesh-3x2x2")
	install(t, bad, routing.Options{DisableNDMeshVCSeparation: true, AllowUnsafe: true})
	rep := verify.Run(bad, verify.Options{})
	if rep.Acyclic() {
		t.Fatalf("equal-channel mode not flagged cyclic:\n%s", rep)
	}
	if rep.Err() == nil {
		t.Error("equal-channel mode under Duato's protocol must fail pre-flight")
	}
	assertCycleClosed(t, bad, rep.Cycle)

	good := build(t, "ndmesh-3x2x2")
	install(t, good, routing.Options{})
	if rep := verify.Run(good, verify.Options{}); !rep.Certified() {
		t.Errorf("separated twin not certified:\n%s", rep)
	}
}

// TestFlagsCyclicCustomRing: shortest-path escape routes around a 5-ring of
// chiplets form a channel cycle; Duato mode must be rejected with a witness
// while safe/unsafe mode remains runnable (flow control carries it).
func TestFlagsCyclicCustomRing(t *testing.T) {
	duato := build(t, "ring-5")
	install(t, duato, routing.Options{AllowUnsafe: true})
	rep := verify.Run(duato, verify.Options{})
	if rep.Acyclic() {
		t.Fatalf("5-ring escape network not flagged cyclic:\n%s", rep)
	}
	if rep.Err() == nil {
		t.Error("cyclic escape network under Duato's protocol must fail pre-flight")
	}
	assertCycleClosed(t, duato, rep.Cycle)

	su := build(t, "ring-5")
	install(t, su, routing.Options{Mode: routing.SafeUnsafe})
	rep = verify.Run(su, verify.Options{})
	if rep.Acyclic() {
		t.Errorf("5-ring minus-first structure unexpectedly acyclic:\n%s", rep)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("safe/unsafe mode on the 5-ring must pass pre-flight, got %v", err)
	}
}

// TestSampling: bounded analysis still certifies and reports its coverage.
func TestSampling(t *testing.T) {
	sys := build(t, "hypercube-4")
	install(t, sys, routing.Options{})
	rep := verify.Run(sys, verify.Options{MaxDests: 4, MaxSources: 2})
	if rep.Dests != 4 {
		t.Errorf("expected 4 sampled destinations, got %d", rep.Dests)
	}
	if !rep.Certified() {
		t.Errorf("sampled run not certified:\n%s", rep)
	}
}

// TestUnsupported: a system without routing yields a structured error, not
// a panic.
func TestUnsupported(t *testing.T) {
	sys := build(t, "hypercube-4")
	rep := verify.Run(sys, verify.Options{})
	if rep.Unsupported == "" || rep.Err() == nil {
		t.Errorf("missing routing not reported: %s", rep)
	}
}
