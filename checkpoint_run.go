package chipletnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"chipletnet/internal/checkpoint"
	"chipletnet/internal/energy"
	"chipletnet/internal/fault"
	"chipletnet/internal/interleave"
	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/stats"
	"chipletnet/internal/traffic"
	"chipletnet/internal/workload"
)

// ErrInterrupted: the run was stopped by RunControl.Interrupt after
// writing a final checkpoint; resume it with Resume. Test with
// errors.Is; the partial Result returned alongside it is still
// meaningful for diagnostics.
var ErrInterrupted = errors.New("chipletnet: simulation interrupted, checkpoint written")

// RunControl carries optional external control for a simulation run:
// periodic checkpointing, checkpoint-and-stop interruption and trace
// recording. The zero value runs to completion exactly like Simulate.
// Cancellation and deadlines are the run's context. The simulator itself
// never consults a clock (determinism); deadlines and signals are the
// caller's, observed at cycle boundaries only, so they never perturb the
// simulated state — a run cut short and resumed finishes bit-identical to
// an uninterrupted one.
type RunControl struct {
	// CheckpointPath is where snapshots are written (atomic
	// write-then-rename, each replacing the previous). Required for
	// CheckpointEvery and Interrupt.
	CheckpointPath string
	// CheckpointEvery > 0 writes a snapshot every that many cycles.
	CheckpointEvery int64
	// Interrupt, when non-nil and readable (or closed), makes the run
	// write a final checkpoint at the next cycle boundary and stop with
	// ErrInterrupted. Typically wired to SIGINT/SIGTERM by the caller.
	Interrupt <-chan struct{}
	// InterruptAtCycle > 0 acts like Interrupt firing at exactly that
	// cycle boundary — a deterministic interruption, for testing resume.
	InterruptAtCycle int64
	// TracePath, when non-empty, records the run as a workload trace
	// (internal/workload format) and writes it there when the run
	// completes cleanly. Recording attaches a tracer, so packet pooling is
	// disabled for the run; results stay bit-identical. Not available on
	// Resume (the recorder would miss every pre-checkpoint packet) or
	// together with another tracer.
	TracePath string
}

// buildSource constructs the injection source the configuration asks
// for: the synthetic Bernoulli generator (empty Workload), the causal
// trace replayer, or the AI-scale-out generator.
func (s *System) buildSource() (traffic.Source, error) {
	cfg := s.Cfg
	gran, err := interleave.ParseGranularity(cfg.Interleave)
	if err != nil {
		return nil, err
	}
	pol := interleave.Policy{G: gran}
	kind, arg, err := workload.Split(cfg.Workload)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "":
		pat, err := traffic.NewPattern(cfg.Pattern, len(s.Topo.Cores), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return traffic.NewGenerator(
			s.Topo.Cores, pat, cfg.InjectionRate,
			cfg.PacketFlits, cfg.MsgPackets, pol, cfg.Seed)
	case workload.KindReplay:
		tr, err := workload.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		return traffic.NewReplayer(tr, s.Topo.Cores, pol)
	case workload.KindAIScaleOut:
		spec, err := workload.ParseAIScaleOut(arg)
		if err != nil {
			return nil, err
		}
		alg, err := collectiveAlgorithm(spec.Collective, spec.DataFlits)
		if err != nil {
			return nil, err
		}
		return traffic.NewAIScaleOut(alg, spec, s.Topo.Cores, cfg.PacketFlits, pol, cfg.Seed)
	}
	return nil, fmt.Errorf("chipletnet: unknown workload kind %q", kind)
}

// session is one run's mutable machinery, wired onto the fabric by
// prepare: the injection source, the statistics collector, and the fault
// engine and workload recorder when configured (nil otherwise).
type session struct {
	src traffic.Source
	col *stats.Collector
	eng *fault.Engine
	rec *workload.Recorder
}

// prepare builds the run's source, collector and fault engine and wires
// them onto the fabric: the delivery sink chain, the credit audit, and,
// when tracePath is set, a workload recorder. Fresh runs and resumed
// runs share it; a resume then restores snapshot state on top.
func (s *System) prepare(tracePath string) (session, error) {
	cfg := s.Cfg
	src, err := s.buildSource()
	if err != nil {
		return session{}, err
	}
	ss := session{src: src, col: &stats.Collector{MeasureFrom: cfg.WarmupCycles + 1}}
	f := s.Topo.Fabric
	f.Sink = ss.col.OnDeliver
	f.CreditAudit = cfg.CheckCredits

	if tracePath != "" {
		if f.Tracer != nil {
			return session{}, fmt.Errorf("chipletnet: cannot record a workload trace: another tracer is attached")
		}
		if ss.rec, err = workload.NewRecorder(s.Topo.Cores); err != nil {
			return session{}, err
		}
		f.Tracer = ss.rec
	}

	// The fault engine attaches the reliability protocol (with its
	// corruption-stream closures) to the links; on resume the fabric
	// restore then fills it with snapshot state.
	if cfg.Fault.Enabled() {
		if ss.eng, err = fault.New(s.Topo, cfg.Fault.engineConfig(cfg.Seed)); err != nil {
			return session{}, err
		}
		ss.eng.Attach(f)
	}

	// Chain the source into the sink so dependency-driven sources observe
	// every delivery in the engines' deterministic sink order (a delivery
	// at cycle T can gate injections from T+1 on). The Bernoulli
	// generator's OnDeliver is a no-op.
	{
		inner := f.Sink
		f.Sink = func(p *packet.Packet, now int64) {
			inner(p, now)
			src.OnDeliver(p, now)
		}
	}

	// Recycle delivered packets so the steady-state loop allocates none.
	// At delivery a packet has left every buffer and wire (virtual
	// cut-through: the tail cannot eject before clearing all upstream
	// buffers); only sub-horizon replay entries may still alias it, and
	// those are functionally inert. Recycling is gated off when something
	// could observe a packet after delivery: a Tracer retaining pointers,
	// or scheduled interface kills, whose stranded-packet post-mortem
	// reads replay-buffer packet fields. The source's OnDeliver runs
	// before the recycle, so it may read but never retain the packet.
	if f.Tracer == nil && len(cfg.Fault.Kill) == 0 {
		pool := &packet.Pool{}
		src.SetPool(pool)
		inner := f.Sink
		f.Sink = func(p *packet.Packet, now int64) {
			inner(p, now)
			pool.Put(p)
		}
	}
	return ss, nil
}

// simulate runs a freshly built system from cycle 1 under ctx and ctrl.
// A System must not be simulated twice.
func (s *System) simulate(ctx context.Context, ctrl RunControl) (Result, error) {
	ss, err := s.prepare(ctrl.TracePath)
	if err != nil {
		return Result{}, err
	}
	return s.run(ctx, &ss, ctrl, 0)
}

// Resume loads a checkpoint, rebuilds the system from the embedded
// configuration, restores the complete dynamic state, and continues the
// run to completion under ctx and ctrl (see Run for the cancellation
// semantics). The finished Result is bit-identical to the uninterrupted
// run's.
func Resume(ctx context.Context, path string, ctrl RunControl) (Result, error) {
	if ctrl.TracePath != "" {
		return Result{}, fmt.Errorf("chipletnet: cannot record a workload trace on resume: the recorder would miss every pre-checkpoint packet")
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var cfg Config
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return Result{}, fmt.Errorf("%w: embedded configuration: %v", checkpoint.ErrCorrupt, err)
	}
	sys, err := Build(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("%w: rebuilding from embedded configuration: %v", checkpoint.ErrMismatch, err)
	}
	ss, err := sys.prepare("")
	if err != nil {
		return Result{}, fmt.Errorf("%w: preparing the run from embedded configuration: %w", checkpoint.ErrMismatch, err)
	}
	if (st.Fault != nil) != (ss.eng != nil) {
		return Result{}, fmt.Errorf("%w: snapshot fault state %v, configuration fault injection %v",
			checkpoint.ErrMismatch, st.Fault != nil, ss.eng != nil)
	}

	if err := sys.Topo.Restore(&st.Topo); err != nil {
		return Result{}, err
	}
	pkts := checkpoint.Materialize(st.Packets)
	if err := sys.Topo.Fabric.Restore(&st.Fabric, pkts); err != nil {
		return Result{}, err
	}
	if err := ss.src.Restore(&st.Gen); err != nil {
		return Result{}, err
	}
	ss.col.Restore(&st.Stats)
	if ss.eng != nil {
		if err := ss.eng.Restore(st.Fault); err != nil {
			return Result{}, err
		}
	}
	return sys.run(ctx, &ss, ctrl, st.Cycle)
}

// run advances the simulation from the cycle after start to completion,
// observing ctx and external control at cycle boundaries, then
// assembles the Result and writes the recorded workload trace, if any,
// when the run completed cleanly. start is 0 for a fresh run, the
// checkpoint cycle on resume.
func (s *System) run(ctx context.Context, ss *session, ctrl RunControl, start int64) (Result, error) {
	cfg := s.Cfg
	f := s.Topo.Fabric
	src, col, eng := ss.src, ss.col, ss.eng
	total := cfg.WarmupCycles + cfg.MeasureCycles

	var simErr error
	timedOut := false
	var timeoutReport *router.DeadlockReport

	// control runs the external checks after completed cycle cy and
	// reports whether the run must stop. done is nil for contexts that
	// can never be done (context.Background), which keeps the per-cycle
	// cancellation check to one nil test.
	done := ctx.Done()
	control := func(cy int64) bool {
		if done != nil {
			select {
			case <-done:
				simErr = canceled(ctx)
				timedOut = true
				timeoutReport = f.DiagnosticReport()
				return true
			default:
			}
		}
		interrupted := ctrl.InterruptAtCycle > 0 && cy == ctrl.InterruptAtCycle
		if !interrupted && ctrl.Interrupt != nil {
			select {
			case <-ctrl.Interrupt:
				interrupted = true
			default:
			}
		}
		if interrupted {
			if err := s.writeCheckpoint(ctrl.CheckpointPath, ss, cy); err != nil {
				simErr = err
			} else {
				simErr = ErrInterrupted
			}
			return true
		}
		if ctrl.CheckpointPath != "" && ctrl.CheckpointEvery > 0 && cy%ctrl.CheckpointEvery == 0 {
			if err := s.writeCheckpoint(ctrl.CheckpointPath, ss, cy); err != nil {
				simErr = err
				return true
			}
		}
		return false
	}

	for cy := start + 1; cy <= total; cy++ {
		src.SetMeasured(cy > cfg.WarmupCycles)
		src.Tick(f, cy)
		if eng != nil {
			if simErr = eng.Step(cy); simErr != nil {
				break
			}
		}
		f.Step()
		if f.Deadlocked {
			break
		}
		if control(cy) {
			break
		}
	}

	// Drain phase: stop injecting and let the network empty, so delivery
	// completeness (zero lost packets) is checkable.
	drained := false
	if simErr == nil && !f.Deadlocked && cfg.DrainCycles > 0 {
		from := total
		if start > from {
			from = start // resuming a checkpoint taken mid-drain
		}
		for cy := from + 1; cy <= total+cfg.DrainCycles && f.InFlight() > 0; cy++ {
			if eng != nil {
				if simErr = eng.Step(cy); simErr != nil {
					break
				}
			}
			f.Step()
			if f.Deadlocked {
				break
			}
			if control(cy) {
				break
			}
		}
		drained = simErr == nil && !f.Deadlocked && f.InFlight() == 0
	}

	offeredRate := cfg.InjectionRate
	if cfg.Workload != "" {
		// Non-synthetic sources have no configured offered load;
		// Saturated() then reports deadlock only.
		offeredRate = 0
	}
	res := Result{
		Cfg:            cfg,
		Summary:        col.Summarize(cfg.MeasureCycles, len(s.Topo.Cores)),
		OfferedPackets: src.Offered(),
		OfferedRate:    offeredRate,
		Deadlocked:     f.Deadlocked,
		DeadlockReport: f.Deadlock,
		Endpoints:      len(s.Topo.Cores),
		Drained:        drained,
		InFlightAtEnd:  f.InFlight(),
		TimedOut:       timedOut,
	}
	if timedOut && res.DeadlockReport == nil {
		res.DeadlockReport = timeoutReport
	}
	res.EnergyPJPerBit = energy.Default().PerBit(res.AvgRouters, res.AvgOnChipHops, res.AvgOffChipHops)
	if eng != nil {
		eng.Finish(src.TotalPackets(), f.InFlight())
		res.FaultEvents = eng.Log
		st := eng.Stats
		res.FaultStats = &st
	}

	// Link utilization summary over the whole run.
	var offSum, onSum float64
	var offN, onN int
	for _, l := range f.Links {
		u := l.Utilization(f.Now)
		if l.OffChip {
			offSum += u
			offN++
			if u > res.PeakOffChipUtilization {
				res.PeakOffChipUtilization = u
			}
		} else {
			onSum += u
			onN++
		}
	}
	if offN > 0 {
		res.AvgOffChipUtilization = offSum / float64(offN)
	}
	if onN > 0 {
		res.AvgOnChipUtilization = onSum / float64(onN)
	}
	if ss.rec != nil && simErr == nil {
		tr, err := ss.rec.Trace()
		if err == nil {
			err = workload.WriteFile(ctrl.TracePath, tr)
		}
		if err != nil {
			return res, fmt.Errorf("chipletnet: recording workload trace: %w", err)
		}
	}
	// A typed fault failure (partition, failed re-certification),
	// cancellation, or interruption ends the run cleanly: the partial
	// Result is still returned for diagnostics.
	return res, simErr
}

// writeCheckpoint captures the complete dynamic state after completed
// cycle cy and writes it atomically to path.
func (s *System) writeCheckpoint(path string, ss *session, cy int64) error {
	if path == "" {
		return fmt.Errorf("chipletnet: checkpoint requested but RunControl.CheckpointPath is empty")
	}
	st, err := s.captureState(ss, cy)
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, st)
}

// captureState assembles the checkpoint State for the run at completed
// cycle cy.
func (s *System) captureState(ss *session, cy int64) (*checkpoint.State, error) {
	cfgJSON, err := json.Marshal(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("chipletnet: serializing configuration: %w", err)
	}
	tbl := checkpoint.NewPacketTable()
	st := &checkpoint.State{
		Config: cfgJSON,
		Cycle:  cy,
		Fabric: s.Topo.Fabric.Snapshot(tbl),
		Gen:    ss.src.Snapshot(),
		Stats:  ss.col.Snapshot(),
		Topo:   s.Topo.Snapshot(),
	}
	if ss.eng != nil {
		st.Fault = ss.eng.Snapshot()
	}
	st.Packets = tbl.List()
	return st, nil
}
