// Command chipletsim runs a single simulation of a multi-chiplet
// interconnection network and prints the measured statistics.
//
// Examples:
//
//	chipletsim -topology hypercube -dims 6 -rate 0.3
//	chipletsim -topology ndmesh -dims 4,4,4 -pattern bit-reverse -rate 0.2
//	chipletsim -topology mesh -dims 8,8 -rate 0.5 -json
//
// Long runs can be made resumable: -checkpoint snap.ckpt -checkpoint-every
// 100000 snapshots the complete simulator state periodically (and on
// SIGINT/SIGTERM), and -resume snap.ckpt continues such a run to the exact
// result the uninterrupted run would have produced. -timeout bounds the
// wall-clock time of a runaway simulation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"chipletnet"
	"chipletnet/internal/checkpoint"
	"chipletnet/internal/workload"
)

func main() {
	cfg := chipletnet.DefaultConfig()

	topoKind := flag.String("topology", "hypercube", "mesh | ndmesh | ndtorus | hypercube | dragonfly | tree | custom")
	dims := flag.String("dims", "6", "topology dimensions, comma separated (custom: n,a0,b0,a1,b1,... edge list; see chipletnet.Topology)")
	noc := flag.String("noc", "4x4", "on-chiplet NoC size WxH")
	pattern := flag.String("pattern", cfg.Pattern, "uniform | hotspot | bit-complement | bit-reverse | bit-shuffle | bit-transpose")
	rate := flag.Float64("rate", cfg.InjectionRate, "injection rate in flits/node/cycle")
	interleave := flag.String("interleave", cfg.Interleave, "none | message | packet")
	workloadFlag := flag.String("workload", "", "non-synthetic workload: replay:<path> | aiscaleout:<spec> | record:<path> | <workload>;record:<path> (empty = synthetic -pattern/-rate traffic)")
	routing := flag.String("routing", string(cfg.Routing), "duato | safe-unsafe | compiled (duato on certified tables)")
	offBW := flag.Int("offchip-bw", cfg.OffChipBW, "chiplet-to-chiplet bandwidth in flits/cycle")
	offLat := flag.Int("offchip-latency", cfg.OffChipLatency, "chiplet-to-chiplet link latency in cycles")
	vcs := flag.Int("vcs", cfg.VCs, "virtual channels per port")
	warmup := flag.Int64("warmup", cfg.WarmupCycles, "warm-up cycles")
	measure := flag.Int64("measure", cfg.MeasureCycles, "measured cycles")
	seed := flag.Uint64("seed", cfg.Seed, "random seed")
	faultBER := flag.Float64("fault-ber", cfg.Fault.BER, "per-flit bit-error probability on chiplet-to-chiplet links")
	faultOnChipBER := flag.Float64("fault-onchip-ber", cfg.Fault.OnChipBER, "per-flit bit-error probability on on-chip links")
	faultKill := flag.String("fault-kill", "", "permanent link failures as cycle:a-b[,cycle:a-b...]")
	faultDegrade := flag.String("fault-degrade", "", "link deratings as cycle:a-b:bwdiv[:latmult][,...]")
	faultTimeout := flag.Int64("fault-timeout", cfg.Fault.RetransmitTimeout, "retransmission timeout in cycles (0 = per-link default)")
	faultBackoffMax := flag.Int64("fault-backoff-max", cfg.Fault.BackoffMax, "retransmission backoff cap in cycles (0 = default)")
	faultNoReverify := flag.Bool("fault-no-reverify", cfg.Fault.DisableReverify, "skip deadlock-freedom re-certification after each kill")
	checkCredits := flag.Bool("checkcredits", cfg.CheckCredits, "audit credit conservation every cycle (slow, diagnostic)")
	drain := flag.Int64("drain", cfg.DrainCycles, "post-run drain budget in cycles (checks delivery completeness)")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	configPath := flag.String("config", "", "load a JSON config file (flags still override)")
	dumpConfig := flag.Bool("dump-config", false, "print the effective config as JSON and exit")
	ckptPath := flag.String("checkpoint", "", "write resumable state snapshots to this file (also on SIGINT/SIGTERM)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "snapshot every N simulated cycles (requires -checkpoint)")
	resumePath := flag.String("resume", "", "resume from a checkpoint file (its embedded config replaces all topology/workload flags)")
	timeout := flag.Duration("timeout", 0, "abort a runaway simulation after this wall-clock time with a diagnostic snapshot (e.g. 30m)")
	engine := flag.String("engine", "active", "cycle engine: active | reference | islands[:K] (bit-identical results; reference is the slow oracle for bisecting engine bugs, islands steps K partitions in parallel)")
	flag.Parse()

	if err := chipletnet.SetEngine(*engine); err != nil {
		fatalf("%v", err)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	fromFile := false
	if *configPath != "" {
		fh, err := os.Open(*configPath)
		if err != nil {
			fatalf("%v", err)
		}
		loaded, err := chipletnet.LoadConfig(fh)
		fh.Close()
		if err != nil {
			fatalf("%v", err)
		}
		cfg = loaded
		fromFile = true
	}

	// Flags the user actually set override the file; without a file,
	// every flag applies (falling back to its default).
	use := func(name string) bool { return !fromFile || set[name] }
	if use("topology") || use("dims") {
		dimInts, err := parseInts(*dims)
		if err != nil {
			fatalf("bad -dims: %v", err)
		}
		cfg.Topology = chipletnet.Topology{Kind: *topoKind, Dims: dimInts}
	}
	if use("noc") {
		var err error
		if cfg.ChipletW, cfg.ChipletH, err = parseNoC(*noc); err != nil {
			fatalf("bad -noc: %v", err)
		}
	}
	if use("pattern") {
		cfg.Pattern = *pattern
	}
	if use("rate") {
		cfg.InjectionRate = *rate
	}
	if use("interleave") {
		cfg.Interleave = *interleave
	}
	recordPath := ""
	if use("workload") && *workloadFlag != "" {
		spec, rec, err := workload.ParseFlag(*workloadFlag)
		if err != nil {
			fatalf("bad -workload: %v", err)
		}
		cfg.Workload = spec
		recordPath = rec
	}
	if use("routing") {
		if *routing == "compiled" {
			cfg.Routing = chipletnet.RoutingDuato
			cfg.CompiledRouting = true
		} else {
			cfg.Routing = chipletnet.RoutingMode(*routing)
		}
	}
	if use("offchip-bw") {
		cfg.OffChipBW = *offBW
	}
	if use("offchip-latency") {
		cfg.OffChipLatency = *offLat
	}
	if use("vcs") {
		cfg.VCs = *vcs
	}
	if use("warmup") {
		cfg.WarmupCycles = *warmup
	}
	if use("measure") {
		cfg.MeasureCycles = *measure
	}
	if use("seed") {
		cfg.Seed = *seed
	}
	if use("fault-ber") {
		cfg.Fault.BER = *faultBER
	}
	if use("fault-onchip-ber") {
		cfg.Fault.OnChipBER = *faultOnChipBER
	}
	if use("fault-kill") && *faultKill != "" {
		kills, err := parseKills(*faultKill)
		if err != nil {
			fatalf("bad -fault-kill: %v", err)
		}
		cfg.Fault.Kill = kills
	}
	if use("fault-degrade") && *faultDegrade != "" {
		degs, err := parseDegrades(*faultDegrade)
		if err != nil {
			fatalf("bad -fault-degrade: %v", err)
		}
		cfg.Fault.Degrade = degs
	}
	if use("fault-timeout") {
		cfg.Fault.RetransmitTimeout = *faultTimeout
	}
	if use("fault-backoff-max") {
		cfg.Fault.BackoffMax = *faultBackoffMax
	}
	if use("fault-no-reverify") {
		cfg.Fault.DisableReverify = *faultNoReverify
	}
	if use("checkcredits") {
		cfg.CheckCredits = *checkCredits
	}
	if use("drain") {
		cfg.DrainCycles = *drain
	}
	// Fault completeness accounting needs a drain window to be meaningful.
	if cfg.Fault.Enabled() && cfg.DrainCycles == 0 && !set["drain"] {
		cfg.DrainCycles = 10 * (cfg.WarmupCycles + cfg.MeasureCycles)
	}

	if *dumpConfig {
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *ckptEvery > 0 && *ckptPath == "" {
		fatalf("-checkpoint-every needs -checkpoint")
	}
	ctrl := chipletnet.RunControl{
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		TracePath:       recordPath,
	}
	if *ckptPath != "" {
		// A first SIGINT/SIGTERM checkpoints and stops cleanly; a second
		// falls back to the default (immediate) signal disposition.
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		intr := make(chan struct{})
		go func() {
			<-sigc
			close(intr)
			<-sigc
			signal.Stop(sigc)
		}()
		ctrl.Interrupt = intr
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var res chipletnet.Result
	var err error
	if *resumePath != "" {
		res, err = chipletnet.Resume(ctx, *resumePath, ctrl)
	} else {
		res, err = chipletnet.Run(ctx, cfg, ctrl)
	}
	switch {
	case errors.Is(err, chipletnet.ErrInterrupted):
		fmt.Fprintf(os.Stderr, "chipletsim: interrupted; checkpoint written to %s (resume with -resume %s)\n",
			*ckptPath, *ckptPath)
		os.Exit(130)
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "chipletsim: wall-clock timeout after %v\n", *timeout)
		if res.DeadlockReport != nil {
			fmt.Fprintln(os.Stderr, res.DeadlockReport)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(res)
		}
		os.Exit(2)
	case errors.Is(err, checkpoint.ErrMismatch):
		// -resume with a checkpoint whose snapshot no longer fits its
		// embedded configuration (edited, truncated, or from another
		// build of the topology): rebuilding would silently diverge, so
		// refuse with the mismatch witness.
		fatalf("resume %s: checkpoint does not match configuration: %v\n"+
			"chipletsim: the snapshot state disagrees with the config embedded in the checkpoint;\n"+
			"chipletsim: restore the original checkpoint file or re-run from scratch without -resume",
			*resumePath, err)
	case err != nil:
		// A typed fault failure (partition, failed re-certification) still
		// carries a partial Result with the event log; surface it.
		if *asJSON && (res.FaultStats != nil || len(res.FaultEvents) > 0) {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(res)
		}
		fatalf("%v", err)
	}

	if recordPath != "" {
		fmt.Fprintf(os.Stderr, "chipletsim: workload trace written to %s (replay with -workload replay:%s)\n",
			recordPath, recordPath)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		if res.Deadlocked {
			os.Exit(2)
		}
		return
	}

	fmt.Printf("system:        %v of %dx%d chiplets (%d endpoints)\n",
		cfg.Topology, cfg.ChipletW, cfg.ChipletH, res.Endpoints)
	if res.Cfg.Workload != "" {
		fmt.Printf("workload:      %s, interleave=%s, routing=%s\n",
			res.Cfg.Workload, res.Cfg.Interleave, res.Cfg.Routing)
	} else {
		fmt.Printf("workload:      %s @ %.3f flits/node/cycle, interleave=%s, routing=%s\n",
			res.Cfg.Pattern, res.Cfg.InjectionRate, res.Cfg.Interleave, res.Cfg.Routing)
	}
	if res.Deadlocked {
		fmt.Println("RESULT:        DEADLOCK detected by the progress watchdog")
		if res.DeadlockReport != nil {
			fmt.Println(res.DeadlockReport)
		}
		os.Exit(2)
	}
	fmt.Printf("latency:       avg %.1f  p50 %.0f  p95 %.0f  p99 %.0f  p999 %.0f  max %d cycles\n",
		res.AvgLatency, res.P50Latency, res.P95Latency, res.P99Latency, res.P999Latency, res.MaxLatency)
	fmt.Printf("throughput:    %.4f flits/node/cycle accepted (offered %.4f)%s\n",
		res.AcceptedFlitsPerNodeCycle, res.OfferedRate, satMark(res))
	for _, cs := range res.Classes {
		fmt.Printf("class:         %-12s %6d pkts  avg %.1f  p99 %.0f  p999 %.0f  max %d  %.4f flits/node/cycle\n",
			cs.Class, cs.MeasuredPackets, cs.AvgLatency, cs.P99Latency, cs.P999Latency,
			cs.MaxLatency, cs.AcceptedFlitsPerNodeCycle)
	}
	fmt.Printf("hops:          %.2f routers, %.2f on-chip links, %.2f off-chip links\n",
		res.AvgRouters, res.AvgOnChipHops, res.AvgOffChipHops)
	fmt.Printf("energy:        %.2f pJ/bit transport estimate\n", res.EnergyPJPerBit)
	fmt.Printf("packets:       %d measured, %d total delivered\n",
		res.MeasuredPackets, res.DeliveredPackets)
	if st := res.FaultStats; st != nil {
		fmt.Printf("faults:        %d corrupted bundles, %d retransmissions, %d nacks\n",
			st.CorruptedBundles, st.Retransmissions, st.Nacks)
		fmt.Printf("               %d links killed, %d degraded, %d decommissioned, %d packets rerouted\n",
			st.LinksKilled, st.LinksDegraded, st.LinksDecommissioned, st.ReroutedPackets)
		fmt.Printf("delivery:      %d delivered, %d lost, %d duplicated, drained=%v (%d in flight at end)\n",
			st.DeliveredPackets, st.LostPackets, st.DuplicatePackets, res.Drained, res.InFlightAtEnd)
		const maxShown = 10
		for i, ev := range res.FaultEvents {
			if i == maxShown {
				fmt.Printf("  ... %d further events\n", len(res.FaultEvents)-maxShown)
				break
			}
			fmt.Printf("  cycle %-8d %-20s %s\n", ev.Cycle, ev.Kind, ev.Detail)
		}
	}
}

func satMark(r chipletnet.Result) string {
	if r.Saturated() {
		return "  [SATURATED]"
	}
	return ""
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseKills parses "cycle:a-b[,cycle:a-b...]" into a kill schedule.
func parseKills(s string) ([]chipletnet.FaultKill, error) {
	var out []chipletnet.FaultKill
	for _, part := range strings.Split(s, ",") {
		cycle, a, b, rest, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%q: want cycle:a-b", part)
		}
		out = append(out, chipletnet.FaultKill{Cycle: cycle, A: a, B: b})
	}
	return out, nil
}

// parseDegrades parses "cycle:a-b:bwdiv[:latmult][,...]" into a derating
// schedule; latmult defaults to 1 (bandwidth-only derating).
func parseDegrades(s string) ([]chipletnet.FaultDegrade, error) {
	var out []chipletnet.FaultDegrade
	for _, part := range strings.Split(s, ",") {
		cycle, a, b, rest, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		if len(rest) < 1 || len(rest) > 2 {
			return nil, fmt.Errorf("%q: want cycle:a-b:bwdiv[:latmult]", part)
		}
		d := chipletnet.FaultDegrade{Cycle: cycle, A: a, B: b, LatencyMult: 1}
		if d.BandwidthDiv, err = strconv.Atoi(rest[0]); err != nil {
			return nil, fmt.Errorf("%q: bad bandwidth divisor: %v", part, err)
		}
		if len(rest) == 2 {
			if d.LatencyMult, err = strconv.Atoi(rest[1]); err != nil {
				return nil, fmt.Errorf("%q: bad latency multiplier: %v", part, err)
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// parseEvent splits one "cycle:a-b[:extra...]" schedule entry.
func parseEvent(s string) (cycle int64, a, b int, rest []string, err error) {
	fields := strings.Split(strings.TrimSpace(s), ":")
	if len(fields) < 2 {
		return 0, 0, 0, nil, fmt.Errorf("%q: want cycle:a-b", s)
	}
	if cycle, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("%q: bad cycle: %v", s, err)
	}
	ab := strings.Split(fields[1], "-")
	if len(ab) != 2 {
		return 0, 0, 0, nil, fmt.Errorf("%q: want node pair a-b", s)
	}
	if a, err = strconv.Atoi(ab[0]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("%q: bad node id: %v", s, err)
	}
	if b, err = strconv.Atoi(ab[1]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("%q: bad node id: %v", s, err)
	}
	return cycle, a, b, fields[2:], nil
}

func parseNoC(s string) (w, h int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want WxH, got %q", s)
	}
	if w, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, err
	}
	if h, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, err
	}
	return w, h, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chipletsim: "+format+"\n", args...)
	os.Exit(1)
}
