package main

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"chipletnet"
	"chipletnet/internal/chiplet"
	"chipletnet/internal/energy"
	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/routing"
	"chipletnet/internal/stats"
	"chipletnet/internal/topology"
	"chipletnet/internal/traffic"
)

// A simulation run times chipletnet.Build before simulating: at least
// minSetupBuilds times, and on until setupBudget seconds or maxSetupBuilds
// builds. setup_s is the median.
const (
	minSetupBuilds = 7
	maxSetupBuilds = 100
	setupBudget    = 1.0
)

// spanWindow is how many cycles of per-cycle calls the traced runner
// aggregates into one span.
const spanWindow = 250

// crossIslandsK is the island count under which each traced iteration
// also simulates its inputs: the outcome must equal the active engine's,
// and its speed is reported.
const crossIslandsK = 2

// simWorkload is a simulation workload: the program's default
// configuration on a 2^dims-chiplet hypercube under uniform traffic at the
// given rate, run by the active engine.
type simWorkload struct {
	dims int
	rate float64
}

func (w simWorkload) config(seed uint64) chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(w.dims)
	cfg.InjectionRate = w.rate
	cfg.Seed = seed
	return cfg
}

// goldenKey names the inputs whose outputs goldens.json records.
func (w simWorkload) goldenKey(cfg chipletnet.Config) string {
	return fmt.Sprintf("%s/%s/rate%g/seed%d", cfg.Topology, cfg.Pattern, cfg.InjectionRate, cfg.Seed)
}

// useEngine selects the active engine (k == 0) or the islands engine
// with k islands for subsequent chipletnet.Build calls. A k above nproc
// is refused, never re-sized to fit.
func useEngine(k int) (overBudget bool, err error) {
	if k == 0 {
		return false, chipletnet.SetEngine(string(chipletnet.EngineActive))
	}
	if n := runtime.NumCPU(); k > n {
		return true, fmt.Errorf("islands:%d needs %d CPUs, nproc is %d", k, k, n)
	}
	return false, chipletnet.SetEngine(fmt.Sprintf("islands:%d", k))
}

// outcome is everything a run reports about the simulated design; two
// runs of the same inputs must agree on it bit for bit, whatever the
// engine or runner.
type outcome struct {
	stats.Summary
	OfferedPackets         int
	EnergyPJPerBit         float64
	AvgOffChipUtilization  float64
	PeakOffChipUtilization float64
	AvgOnChipUtilization   float64
	InFlightAtEnd          int
	Cycles                 int64
	FlitHops               int64
}

func flitHops(f *router.Fabric) int64 {
	var n int64
	for _, l := range f.Links {
		n += l.Carried
	}
	return n
}

// simulate runs a built system through System.Simulate and returns its
// outcome and the seconds Simulate took.
func simulate(sys *chipletnet.System) (outcome, float64, error) {
	t := time.Now()
	res, err := sys.Simulate()
	sec := time.Since(t).Seconds()
	if err != nil {
		return outcome{}, sec, err
	}
	if res.Deadlocked || res.TimedOut {
		return outcome{}, sec, fmt.Errorf("run deadlocked or timed out")
	}
	f := sys.Topo.Fabric
	return outcome{
		Summary:                res.Summary,
		OfferedPackets:         res.OfferedPackets,
		EnergyPJPerBit:         res.EnergyPJPerBit,
		AvgOffChipUtilization:  res.AvgOffChipUtilization,
		PeakOffChipUtilization: res.PeakOffChipUtilization,
		AvgOnChipUtilization:   res.AvgOnChipUtilization,
		InFlightAtEnd:          res.InFlightAtEnd,
		Cycles:                 f.Now,
		FlitHops:               flitHops(f),
	}, sec, nil
}

func simRunner(w simWorkload) workloadRunner {
	return func(r *report, seed uint64, seconds float64, traced bool) {
		if _, err := useEngine(0); !r.op(err) {
			return
		}
		cfg := w.config(seed)
		if traced {
			r.traceRepeatedly(seconds, func(v map[string]float64) bool {
				return runSimTraced(r, v, w, cfg, seed)
			})
		} else {
			runSim(r, w, cfg, seconds)
		}
	}
}

// runSim measures the end-to-end metrics: timed set-up builds, then
// build-and-simulate repetitions until the budget is spent (at least
// one). Every repetition's outcome must equal the first's and, where one
// is recorded, the golden.
func runSim(r *report, w simWorkload, cfg chipletnet.Config, seconds float64) {
	start := time.Now()
	var setup []float64
	var sys *chipletnet.System
	for i := 0; i < minSetupBuilds || (i < maxSetupBuilds && time.Since(start).Seconds() < setupBudget); i++ {
		t := time.Now()
		s, err := chipletnet.Build(cfg)
		setup = append(setup, time.Since(t).Seconds())
		if !r.op(err) {
			return
		}
		sys = s
	}
	settle()

	var rcps, fhps []float64
	var ref string
	for rep := 0; rep == 0 || time.Since(start).Seconds() < seconds; rep++ {
		if rep > 0 {
			sys = nil
			settle()
			s, err := chipletnet.Build(cfg)
			if !r.op(err) {
				return
			}
			sys = s
		}
		out, sec, err := simulate(sys)
		if !r.op(err) {
			return
		}
		d, err := digest(out)
		if !r.op(err) {
			return
		}
		if rep == 0 {
			ref = d
			r.matchGolden(w.goldenKey(cfg), d)
			r.peakRSSMB()
		}
		r.check(d == ref, "repetition %d: outcome digest %s differs from the first repetition's %s", rep, d, ref)
		routers := float64(len(sys.Topo.Fabric.Routers))
		rcps = append(rcps, routers*float64(out.Cycles)/sec)
		fhps = append(fhps, float64(out.FlitHops)/sec)
		fmt.Printf("rep %d: simulate %.4f s, %.0f router-cycles/s, %.0f flit-hops/s\n",
			rep, sec, rcps[rep], fhps[rep])
	}
	fmt.Printf("setup: %d builds, median %.6f s\n", len(setup), median(setup))
	r.values["setup_s"] = median(setup)
	r.values["router_cycles_per_s"] = median(rcps)
	r.values["flit_hops_per_s"] = median(fhps)
}

// runSimTraced measures the per-layer metrics into v: one untraced run
// through the public entry points (Go runtime counters measured around
// Simulate), then one traced run that drives the layers directly. Both
// outcomes must match bit for bit.
func runSimTraced(r *report, v map[string]float64, w simWorkload, cfg chipletnet.Config, seed uint64) bool {
	t := time.Now()
	sys, err := chipletnet.Build(cfg)
	if !r.op(err) {
		return false
	}
	buildSec := time.Since(t).Seconds()
	var ref outcome
	var simSec float64
	measureGo(v, func() { ref, simSec, err = simulate(sys) })
	untracedWall := buildSec + simSec
	if !r.op(err) {
		return false
	}
	activeRCPS := float64(len(sys.Topo.Fabric.Routers)) * float64(ref.Cycles) / simSec
	sys = nil
	settle()

	tr := newTracer()
	got, probe, err := tracedSim(tr, cfg)
	if !r.op(err) {
		return false
	}
	dRef, err1 := digest(ref)
	dGot, err2 := digest(got)
	if !r.op(err1) || !r.op(err2) {
		return false
	}
	r.check(dRef == dGot, "traced outcome digest %s differs from the untraced %s", dGot, dRef)
	r.matchGolden(w.goldenKey(cfg), dRef)

	self := tr.selfTimes(-1)
	v["topology.build_s"] = self["topology.build"]
	v["routing.build_s"] = self["routing.build"]
	v["traffic.tick_s"] = self["traffic.tick"]
	v["traffic.injected_packets"] = float64(probe.injected)
	v["router.step_s"] = self["router.step"]
	v["router.router_cycles"] = float64(probe.routers) * float64(got.Cycles)
	v["router.flit_hops"] = float64(got.FlitHops)
	v["router.active_router_ratio"] = float64(probe.active) / (float64(probe.routers) * float64(got.Cycles))
	v["stats.deliver_s"] = self["stats.deliver"]
	v["stats.delivered_packets"] = float64(got.DeliveredPackets)
	v["stats.summarize_s"] = self["stats.summarize"]
	v["model.avg_latency_cycles"] = got.AvgLatency
	v["model.p99_latency_cycles"] = got.P99Latency
	v["model.accepted_flits_per_node_cycle"] = got.AcceptedFlitsPerNodeCycle
	v["model.peak_offchip_util"] = got.PeakOffChipUtilization
	r.checkTrace(v, tr, seed, untracedWall)
	return crossIslands(r, v, crossIslandsK, cfg, dRef, activeRCPS)
}

// crossIslands simulates cfg untraced under k islands, checks that its
// outcome digest equals want (the active engine's), and reports its speed
// and its speed-up over the active engine's untraced run.
func crossIslands(r *report, v map[string]float64, k int, cfg chipletnet.Config, want string, activeRCPS float64) bool {
	over, err := useEngine(k)
	if over {
		fmt.Printf("SKIPPED islands cross-check: %v\n", err)
		return true
	}
	if !r.op(err) {
		return false
	}
	defer useEngine(0) // back to the active engine, which cannot fail
	settle()
	sys, err := chipletnet.Build(cfg)
	if !r.op(err) {
		return false
	}
	out, sec, err := simulate(sys)
	if !r.op(err) {
		return false
	}
	d, err := digest(out)
	if !r.op(err) {
		return false
	}
	r.check(d == want, "islands:%d outcome digest %s differs from the active engine's %s", k, d, want)
	rcps := float64(len(sys.Topo.Fabric.Routers)) * float64(out.Cycles) / sec
	v["islands.router_cycles_per_s"] = rcps
	v["islands.speedup"] = rcps / activeRCPS
	fmt.Printf("islands:%d cross-check: simulate %.4f s, %.0f router-cycles/s, %.3fx the active engine\n",
		k, sec, rcps, rcps/activeRCPS)
	return true
}

// simProbe holds the counts the traced runner gathers at layer
// boundaries.
type simProbe struct {
	routers  int
	active   int64 // Σ over cycles of routers in the active set
	injected uint64
}

// tracedSim builds and runs cfg the way chipletnet.Build and
// System.Simulate do, calling each layer's public functions directly and
// recording a span around every call.
func tracedSim(tr *tracer, cfg chipletnet.Config) (outcome, simProbe, error) {
	var probe simProbe
	if err := cfg.Validate(); err != nil {
		return outcome{}, probe, err
	}
	if cfg.Topology.Kind != "hypercube" || cfg.CrossLinkFaultFraction > 0 || cfg.Fault.Enabled() ||
		cfg.Workload != "" || cfg.DrainCycles > 0 {
		return outcome{}, probe, fmt.Errorf("traced runner: only fault-free synthetic hypercube runs without drain are supported")
	}
	root := tr.begin("run", -1)
	defer tr.end(root)

	sp := tr.begin("topology.build", root)
	geo, err := chiplet.New(cfg.ChipletW, cfg.ChipletH)
	if err != nil {
		return outcome{}, probe, err
	}
	lp := topology.LinkParams{
		VCs: cfg.VCs, InternalBufFlits: cfg.InternalBufFlits, InterfaceBufFlits: cfg.InterfaceBufFlits,
		OnChipBW: cfg.OnChipBW, OffChipBW: cfg.OffChipBW,
		OnChipLatency: cfg.OnChipLatency, OffChipLatency: cfg.OffChipLatency, EjectBW: cfg.EjectBW,
	}
	sys, err := topology.BuildHypercube(geo, cfg.Topology.Dims[0], lp)
	tr.end(sp)
	if err != nil {
		return outcome{}, probe, err
	}

	sp = tr.begin("routing.build", root)
	opt := routing.Options{DisableNDMeshVCSeparation: cfg.DisableNDMeshVCSeparation, AllowUnsafe: cfg.AllowUnsafeRouting}
	if cfg.Routing == chipletnet.RoutingSafeUnsafe {
		opt.Mode = routing.SafeUnsafe
	}
	rt, err := routing.New(sys, opt)
	if err == nil {
		sys.Fabric.Routing = rt
		if cfg.CompiledRouting {
			var comp *routing.Compiled
			if comp, _, err = routing.Compile(sys); err == nil {
				sys.Fabric.Routing = comp
			}
		}
	}
	tr.end(sp)
	if err != nil {
		return outcome{}, probe, err
	}

	f := sys.Fabric
	sp = tr.begin("router.setup", root)
	f.SafeUnsafe = cfg.Routing == chipletnet.RoutingSafeUnsafe
	f.OffChipVAExtra = cfg.OffChipVAExtra
	f.DeadlockThreshold = cfg.DeadlockThreshold
	f.CreditAudit = cfg.CheckCredits
	tr.end(sp)

	sp = tr.begin("traffic.setup", root)
	var src traffic.Source
	gran, err := interleave.ParseGranularity(cfg.Interleave)
	if err == nil {
		var pat traffic.Pattern
		if pat, err = traffic.NewPattern(cfg.Pattern, len(sys.Cores), cfg.Seed); err == nil {
			src, err = traffic.NewGenerator(sys.Cores, pat, cfg.InjectionRate,
				cfg.PacketFlits, cfg.MsgPackets, interleave.Policy{G: gran}, cfg.Seed)
		}
	}
	tr.end(sp)
	if err != nil {
		return outcome{}, probe, err
	}

	// The sink chain and packet recycling of System.Simulate, with the
	// statistics collector timed inside the fabric step that calls it.
	col := &stats.Collector{MeasureFrom: cfg.WarmupCycles + 1}
	pool := &packet.Pool{}
	src.SetPool(pool)
	var deliverWin int
	f.Sink = func(p *packet.Packet, now int64) {
		t0 := tr.now()
		col.OnDeliver(p, now)
		t1 := tr.now()
		tr.add(deliverWin, t1, t1-t0)
		src.OnDeliver(p, now)
		pool.Put(p)
	}

	probe.routers = len(f.Routers)
	var tickWin, activeWin, stepWin int
	total := cfg.WarmupCycles + cfg.MeasureCycles
	for cy := int64(1); cy <= total; cy++ {
		if (cy-1)%spanWindow == 0 {
			tickWin = tr.window("traffic.tick", root)
			activeWin = tr.window("router.active_sets", root)
			stepWin = tr.window("router.step", root)
			deliverWin = tr.window("stats.deliver", stepWin)
		}
		src.SetMeasured(cy > cfg.WarmupCycles)
		t0 := tr.now()
		src.Tick(f, cy)
		t1 := tr.now()
		tr.add(tickWin, t1, t1-t0)

		active, _ := f.ActiveSets()
		for _, word := range active {
			probe.active += int64(bits.OnesCount64(word))
		}
		t2 := tr.now()
		tr.add(activeWin, t2, t2-t1)

		f.Step()
		t3 := tr.now()
		tr.add(stepWin, t3, t3-t2)
		if f.Deadlocked {
			return outcome{}, probe, fmt.Errorf("traced run deadlocked at cycle %d", cy)
		}
	}

	sp = tr.begin("stats.summarize", root)
	out := outcome{
		Summary:        col.Summarize(cfg.MeasureCycles, len(sys.Cores)),
		OfferedPackets: src.Offered(),
		InFlightAtEnd:  f.InFlight(),
		Cycles:         f.Now,
		FlitHops:       flitHops(f),
	}
	out.EnergyPJPerBit = energy.Default().PerBit(out.AvgRouters, out.AvgOnChipHops, out.AvgOffChipHops)
	var offSum, onSum float64
	var offN, onN int
	for _, l := range f.Links {
		u := l.Utilization(f.Now)
		if l.OffChip {
			offSum += u
			offN++
			if u > out.PeakOffChipUtilization {
				out.PeakOffChipUtilization = u
			}
		} else {
			onSum += u
			onN++
		}
	}
	if offN > 0 {
		out.AvgOffChipUtilization = offSum / float64(offN)
	}
	if onN > 0 {
		out.AvgOnChipUtilization = onSum / float64(onN)
	}
	tr.end(sp)
	probe.injected = src.TotalPackets()
	return out, probe, nil
}
