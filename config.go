// Package chipletnet reproduces "A Scalable Methodology for Designing
// Efficient Interconnection Network of Chiplets" (Feng, Xiang, Ma —
// HPCA 2023): a cycle-accurate simulator for multi-chiplet interconnection
// networks built from 2D-mesh-NoC chiplets, with software-defined interface
// grouping, minus-first-routing (MFR) based deadlock-free adaptive routing,
// safe/unsafe flow control, and network interleaving.
//
// Typical use:
//
//	cfg := chipletnet.DefaultConfig()
//	cfg.Topology = chipletnet.HypercubeTopology(6) // 64 chiplets
//	cfg.InjectionRate = 0.2
//	res, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{})
//
// Run takes a context for cancellation and deadlines and a RunControl
// for checkpointing; Resume continues a checkpointed run, RunBatch runs
// many configurations in parallel, and Build + System.Simulate runs one
// configuration to completion on an already-built system.
//
// See the examples/ directory for complete programs and cmd/chipletfig for
// the harness that regenerates every table and figure of the paper.
package chipletnet

import (
	"fmt"

	"chipletnet/internal/fault"
	"chipletnet/internal/interleave"
	"chipletnet/internal/routing"
	"chipletnet/internal/workload"
)

// Topology selects the chiplet-level interconnection.
type Topology struct {
	// Kind is one of "mesh" (the flat stitched baseline), "ndmesh",
	// "ndtorus", "hypercube", "dragonfly", "tree", "custom".
	Kind string
	// Dims parameterizes the kind:
	//   mesh:      [cx, cy] chiplet grid
	//   ndmesh:    chiplet-level mesh dimensions, e.g. [4,4,4]
	//   hypercube: [n] for 2^n chiplets
	//   dragonfly: [m] fully connected chiplets (m even)
	//   tree:      [numChiplets, fanout]
	Dims []int
}

// MeshTopology returns the flat 2D-mesh baseline over a cx × cy chiplet
// grid.
func MeshTopology(cx, cy int) Topology { return Topology{Kind: "mesh", Dims: []int{cx, cy}} }

// NDMeshTopology returns an n-dimensional chiplet mesh.
func NDMeshTopology(dims ...int) Topology { return Topology{Kind: "ndmesh", Dims: dims} }

// NDTorusTopology returns an n-dimensional chiplet torus (NDMesh plus
// wrap-around channels, used by adaptive routing only).
func NDTorusTopology(dims ...int) Topology { return Topology{Kind: "ndtorus", Dims: dims} }

// HypercubeTopology returns a 2^n-chiplet hypercube.
func HypercubeTopology(n int) Topology { return Topology{Kind: "hypercube", Dims: []int{n}} }

// DragonflyTopology returns an m-chiplet fully connected network (m even).
func DragonflyTopology(m int) Topology { return Topology{Kind: "dragonfly", Dims: []int{m}} }

// TreeTopology returns a rooted tree of chiplets with the given fan-out.
func TreeTopology(numChiplets, fanout int) Topology {
	return Topology{Kind: "tree", Dims: []int{numChiplets, fanout}}
}

// CustomTopology returns an arbitrary (irregular) chiplet graph from an
// undirected edge list (Fig. 6). Custom topologies must be routed with
// RoutingSafeUnsafe. The edge list is packed into Dims as
// [numChiplets, a0, b0, a1, b1, ...].
func CustomTopology(numChiplets int, edges [][2]int) Topology {
	dims := []int{numChiplets}
	for _, e := range edges {
		dims = append(dims, e[0], e[1])
	}
	return Topology{Kind: "custom", Dims: dims}
}

// customEdges unpacks a custom topology's edge list.
func (t Topology) customEdges() (n int, edges [][2]int, err error) {
	if len(t.Dims) < 3 || len(t.Dims)%2 == 0 {
		return 0, nil, fmt.Errorf("chipletnet: custom topology needs Dims [n, a0, b0, ...], got %v", t.Dims)
	}
	n = t.Dims[0]
	for i := 1; i+1 < len(t.Dims); i += 2 {
		edges = append(edges, [2]int{t.Dims[i], t.Dims[i+1]})
	}
	return n, edges, nil
}

// NumChiplets returns the chiplet count the topology describes.
func (t Topology) NumChiplets() (int, error) {
	switch t.Kind {
	case "mesh":
		if len(t.Dims) != 2 {
			return 0, fmt.Errorf("chipletnet: mesh topology needs Dims [cx, cy], got %v", t.Dims)
		}
		return t.Dims[0] * t.Dims[1], nil
	case "ndmesh", "ndtorus":
		if len(t.Dims) == 0 {
			return 0, fmt.Errorf("chipletnet: %s topology needs at least one dimension", t.Kind)
		}
		n := 1
		for _, d := range t.Dims {
			n *= d
		}
		return n, nil
	case "hypercube":
		if len(t.Dims) != 1 {
			return 0, fmt.Errorf("chipletnet: hypercube topology needs Dims [n], got %v", t.Dims)
		}
		return 1 << uint(t.Dims[0]), nil
	case "dragonfly":
		if len(t.Dims) != 1 {
			return 0, fmt.Errorf("chipletnet: dragonfly topology needs Dims [m], got %v", t.Dims)
		}
		return t.Dims[0], nil
	case "tree":
		if len(t.Dims) != 2 {
			return 0, fmt.Errorf("chipletnet: tree topology needs Dims [chiplets, fanout], got %v", t.Dims)
		}
		return t.Dims[0], nil
	case "custom":
		n, _, err := t.customEdges()
		return n, err
	}
	return 0, fmt.Errorf("chipletnet: unknown topology kind %q", t.Kind)
}

func (t Topology) String() string {
	switch t.Kind {
	case "mesh":
		return fmt.Sprintf("2D-mesh %dx%d", t.Dims[0], t.Dims[1])
	case "ndmesh":
		return fmt.Sprintf("%dD-mesh %v", len(t.Dims), t.Dims)
	case "ndtorus":
		return fmt.Sprintf("%dD-torus %v", len(t.Dims), t.Dims)
	case "hypercube":
		return fmt.Sprintf("hypercube 2^%d", t.Dims[0])
	case "dragonfly":
		return fmt.Sprintf("dragonfly %d", t.Dims[0])
	case "tree":
		return fmt.Sprintf("tree %d/fanout %d", t.Dims[0], t.Dims[1])
	case "custom":
		return fmt.Sprintf("custom %d-chiplet graph", t.Dims[0])
	}
	return t.Kind
}

// RoutingMode selects deadlock avoidance: Duato-style escape channels
// (default) or safe/unsafe flow control (Algorithm 5).
type RoutingMode string

const (
	RoutingDuato      RoutingMode = "duato"
	RoutingSafeUnsafe RoutingMode = "safe-unsafe"
)

// Config fully describes one simulation run. DefaultConfig returns the
// paper's Table II parameters.
type Config struct {
	// ChipletW, ChipletH size the on-chiplet 2D-mesh NoC.
	ChipletW, ChipletH int
	// Topology is the chiplet-level interconnection.
	Topology Topology

	// FlitBits is the flit width (32 bits in Table II). It scales energy
	// accounting only; buffers and bandwidths are configured in flits.
	FlitBits int
	// PacketFlits is the packet length (32 flits).
	PacketFlits int
	// MsgPackets is the number of packets per application message (the
	// interleaving unit, §V).
	MsgPackets int

	// VCs is the virtual channel count per port (2).
	VCs int
	// InternalBufFlits / InterfaceBufFlits are per-VC input buffer sizes:
	// 32 flits (1024 bits) internal, 64 flits (2048 bits) at
	// chiplet-to-chiplet receivers.
	InternalBufFlits  int
	InterfaceBufFlits int

	// OnChipBW / OffChipBW are link bandwidths in flits/cycle
	// (128 and 64 bits/cycle at 32-bit flits → 4 and 2 flits/cycle).
	OnChipBW  int
	OffChipBW int
	// OnChipLatency / OffChipLatency are link latencies in cycles
	// (1 on-chip; 5 for the chiplet-to-chiplet link).
	OnChipLatency  int
	OffChipLatency int
	// EjectBW is the local sink consumption rate in flits/cycle.
	EjectBW int
	// OffChipVAExtra adds cycles to cross-chiplet VC allocation.
	OffChipVAExtra int

	// Routing selects the deadlock-avoidance scheme.
	Routing RoutingMode
	// DisableNDMeshVCSeparation turns off the Theorem-1 d+/d- virtual
	// channel separation on nD-mesh (demonstration only).
	DisableNDMeshVCSeparation bool
	// AllowUnsafeRouting opts into routing configurations whose escape
	// sub-network is not certified deadlock-free (the equal-channel mode
	// above, and Duato-escape routing on irregular custom topologies).
	// Build rejects such configurations unless this is set; the static
	// verifier (internal/verify, cmd/chipletverify) reports the offending
	// channel-dependency cycle either way.
	AllowUnsafeRouting bool
	// CompiledRouting makes Build run the static certifier over the full
	// (node, destination, tag-class) space and install the certified
	// flat-array routing tables it compiles (routing.Compiled) in place of
	// the per-hop MFR/Duato interpreter. Build fails if certification
	// fails — a compiled system is always a certified one. Results are
	// bit-identical to interpreted routing (enforced by the differential
	// equivalence matrix); lookups under fault reconfiguration
	// transparently fall back to the interpreter.
	CompiledRouting bool

	// CrossLinkFaultFraction disables this fraction of chiplet-to-chiplet
	// channels (deterministically from Seed) before simulation, modeling
	// faulty SerDes lanes; interface grouping's link redundancy lets
	// routing steer around them. Only meaningful for grouped topologies.
	CrossLinkFaultFraction float64

	// Fault configures mid-run fault injection: bit-error rates with
	// link-level retransmission, and scheduled permanent failures or
	// derating of chiplet-to-chiplet channels with graceful degradation
	// (see internal/fault). The zero value disables injection and leaves
	// the simulation bit-identical to a fault-free run.
	Fault FaultConfig

	// CheckCredits enables the per-cycle credit-conservation audit in the
	// router model: any flow-control or retransmission bug that leaks or
	// double-returns a credit panics immediately with a diagnosis instead
	// of deadlocking silently. Debug aid.
	CheckCredits bool

	// DrainCycles, when positive, appends a drain phase after measurement:
	// injection stops and simulation continues until the network is empty
	// or the budget runs out, so delivery completeness can be verified
	// (Result.Drained / InFlightAtEnd).
	DrainCycles int64

	// Pattern is one of traffic.PatternNames (§VI-B).
	Pattern string
	// InjectionRate is the offered load in flits/node/cycle.
	InjectionRate float64
	// Interleave is "none", "message" (coarse) or "packet" (fine).
	Interleave string

	// Workload, when non-empty, replaces the synthetic Bernoulli process
	// with a non-synthetic injection source: "replay:<path>" replays a
	// recorded trace with causality (see internal/workload), and
	// "aiscaleout:<spec>" runs the AI-scale-out generator (collective
	// phases over classed background traffic). Pattern and InjectionRate
	// are then ignored. Empty runs the synthetic process, as before.
	Workload string `json:",omitempty"`

	// WarmupCycles / MeasureCycles split the run (Table II: 6000 cycles
	// with 1000 warm-up).
	WarmupCycles  int64
	MeasureCycles int64
	// Seed makes the run reproducible.
	Seed uint64
	// DeadlockThreshold is the progress watchdog limit in cycles
	// (0 disables).
	DeadlockThreshold int64
}

// FaultKill schedules the permanent failure of the chiplet-to-chiplet
// channel between nodes A and B at the given cycle.
type FaultKill struct {
	Cycle int64
	A, B  int
}

// FaultDegrade schedules the derating of the channel between A and B:
// bandwidth divided by BandwidthDiv (floored at 1 flit/cycle), latency
// multiplied by LatencyMult. Zero leaves the respective parameter
// unchanged.
type FaultDegrade struct {
	Cycle        int64
	A, B         int
	BandwidthDiv int
	LatencyMult  int
}

// FaultConfig is the user-facing fault-injection setup, converted to the
// engine's schedule at simulation time.
type FaultConfig struct {
	// BER / OnChipBER are per-flit corruption probabilities on off-chip
	// and on-chip links; either > 0 enables the link-level reliability
	// protocol (CRC, ack/nack, go-back-N retransmission) on the covered
	// links.
	BER       float64
	OnChipBER float64
	// Kill and Degrade are the scheduled permanent faults.
	Kill    []FaultKill
	Degrade []FaultDegrade
	// RetransmitTimeout / BackoffMax tune the retransmission protocol
	// (cycles; 0 picks defaults that stay below the deadlock watchdog).
	RetransmitTimeout int64
	BackoffMax        int64
	// DisableReverify skips the mid-run deadlock-freedom re-certification
	// after permanent failures; VerifyMaxDests bounds its cost (0 = 8
	// sampled destinations).
	DisableReverify bool
	VerifyMaxDests  int
}

// Enabled reports whether any fault injection is configured.
func (fc FaultConfig) Enabled() bool {
	return fc.BER > 0 || fc.OnChipBER > 0 || len(fc.Kill) > 0 || len(fc.Degrade) > 0
}

// engineConfig converts the user-facing setup into the engine's form.
func (fc FaultConfig) engineConfig(seed uint64) fault.Config {
	c := fault.Config{
		BER:               fc.BER,
		OnChipBER:         fc.OnChipBER,
		Seed:              seed,
		RetransmitTimeout: fc.RetransmitTimeout,
		BackoffMax:        fc.BackoffMax,
		VerifyOff:         fc.DisableReverify,
		VerifyMaxDests:    fc.VerifyMaxDests,
	}
	for _, k := range fc.Kill {
		c.Events = append(c.Events, fault.Event{Cycle: k.Cycle, Kind: fault.KindLinkKill, A: k.A, B: k.B})
	}
	for _, d := range fc.Degrade {
		c.Events = append(c.Events, fault.Event{
			Cycle: d.Cycle, Kind: fault.KindLinkDegrade, A: d.A, B: d.B,
			BandwidthDiv: d.BandwidthDiv, LatencyMult: d.LatencyMult,
		})
	}
	return c
}

// DefaultConfig returns the paper's Table II parameter setup on the
// Fig. 11 system: 64 4×4 chiplets, uniform traffic, coarse interleaving.
func DefaultConfig() Config {
	return Config{
		ChipletW: 4, ChipletH: 4,
		Topology:          HypercubeTopology(6),
		FlitBits:          32,
		PacketFlits:       32,
		MsgPackets:        4,
		VCs:               2,
		InternalBufFlits:  32,
		InterfaceBufFlits: 64,
		OnChipBW:          4,
		OffChipBW:         2,
		OnChipLatency:     1,
		OffChipLatency:    5,
		EjectBW:           4,
		OffChipVAExtra:    1,
		Routing:           RoutingDuato,
		Pattern:           "uniform",
		InjectionRate:     0.1,
		Interleave:        "message",
		WarmupCycles:      1000,
		MeasureCycles:     5000,
		Seed:              1,
		DeadlockThreshold: 2000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ChipletW < 3 || c.ChipletH < 3 {
		return fmt.Errorf("chipletnet: chiplet NoC must be at least 3x3, got %dx%d", c.ChipletW, c.ChipletH)
	}
	if _, err := c.Topology.NumChiplets(); err != nil {
		return err
	}
	if c.PacketFlits < 1 {
		return fmt.Errorf("chipletnet: packet length must be positive")
	}
	if c.PacketFlits > c.InternalBufFlits || c.PacketFlits > c.InterfaceBufFlits {
		return fmt.Errorf("chipletnet: virtual cut-through needs buffers >= one packet (%d flits)", c.PacketFlits)
	}
	if c.InjectionRate < 0 {
		return fmt.Errorf("chipletnet: negative injection rate")
	}
	if c.CrossLinkFaultFraction < 0 || c.CrossLinkFaultFraction >= 1 {
		return fmt.Errorf("chipletnet: cross-link fault fraction must be in [0,1), got %g", c.CrossLinkFaultFraction)
	}
	if c.Fault.BER < 0 || c.Fault.BER >= 1 || c.Fault.OnChipBER < 0 || c.Fault.OnChipBER >= 1 {
		return fmt.Errorf("chipletnet: fault BER must be in [0,1), got %g off-chip / %g on-chip",
			c.Fault.BER, c.Fault.OnChipBER)
	}
	for _, k := range c.Fault.Kill {
		if k.Cycle < 1 {
			return fmt.Errorf("chipletnet: fault kill cycle must be >= 1, got %d", k.Cycle)
		}
	}
	for _, d := range c.Fault.Degrade {
		if d.Cycle < 1 {
			return fmt.Errorf("chipletnet: fault degrade cycle must be >= 1, got %d", d.Cycle)
		}
		if d.BandwidthDiv < 0 || d.LatencyMult < 0 {
			return fmt.Errorf("chipletnet: fault degrade parameters must be non-negative")
		}
	}
	if c.DrainCycles < 0 {
		return fmt.Errorf("chipletnet: negative drain cycles")
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("chipletnet: invalid cycle counts (warmup %d, measure %d)", c.WarmupCycles, c.MeasureCycles)
	}
	if c.Routing != RoutingDuato && c.Routing != RoutingSafeUnsafe {
		return fmt.Errorf("chipletnet: unknown routing mode %q", c.Routing)
	}
	if _, err := interleave.ParseGranularity(c.Interleave); err != nil {
		return err
	}
	if c.Workload != "" {
		kind, arg, err := workload.Split(c.Workload)
		if err != nil {
			return err
		}
		if kind == workload.KindAIScaleOut {
			spec, err := workload.ParseAIScaleOut(arg)
			if err != nil {
				return err
			}
			if _, err := collectiveAlgorithm(spec.Collective, spec.DataFlits); err != nil {
				return err
			}
			if spec.ReqFlits > c.InternalBufFlits || spec.ReqFlits > c.InterfaceBufFlits {
				return fmt.Errorf("chipletnet: virtual cut-through needs buffers >= one request packet (%d flits)", spec.ReqFlits)
			}
		}
	}
	return nil
}

func (c Config) routingOptions() routing.Options {
	opt := routing.Options{
		DisableNDMeshVCSeparation: c.DisableNDMeshVCSeparation,
		AllowUnsafe:               c.AllowUnsafeRouting,
	}
	if c.Routing == RoutingSafeUnsafe {
		opt.Mode = routing.SafeUnsafe
	}
	return opt
}
