// Command chipletbench is the hot-path benchmark-regression harness: it
// measures the cycle engine on a fixed set of workloads under the
// suite's baseline and optimized engines and gates the result.
//
// Usage:
//
//	chipletbench [-suite S] [-count N] [-tol 0.10] [-out FILE]  # measure, write JSON
//	chipletbench [-suite S] [-count N] [-tol 0.10] -check FILE  # measure, gate, exit 1 on regression
//
// Five suites exist: "hotpath" (the default) exercises the cycle engine
// itself, "dse" exercises the design-space-exploration pipeline —
// a cache-cold exploration that simulates every candidate, a cache-warm
// exploration that must touch the simulator zero times, and the
// per-candidate content-hash + cache-lookup micro path — "compiled"
// exercises the certified flat-array routing tables: the same mid-load
// run under compiled and interpreted routing (side by side in the JSON),
// plus the Build-time certification + table-compilation cost —
// "islands" exercises the parallel-islands engine on the 256-chiplet
// steady-state workload, against the serial active-set engine as its
// baseline (the other suites baseline against the reference stepper) —
// and "workload" exercises trace-driven replay: the identical run as a
// synthetic Bernoulli process (baseline) and as a causal replay of a
// trace recorded from that very run (optimized side), gating the replay
// overhead at no worse than ~1.2x, plus the AI-scale-out generator's
// cost reported side by side.
//
// The JSON file (BENCH_hotpath.json / BENCH_dse.json /
// BENCH_compiled.json / BENCH_islands.json / BENCH_workload.json at the
// repository root) records ns/op, bytes/op and allocs/op per workload
// per engine — the committed before/after evidence for the hot-path
// overhaul.
//
// Gating is deliberately split by what is portable across machines:
//
//   - ns/op is machine-dependent, so the wall-clock gate is RELATIVE and
//     measured in-process: on every workload the optimized engine must
//     reach that workload's minimum speedup over the suite's baseline
//     engine (2x on the mostly-idle low-rate workloads, 1.5x for the
//     islands engine at K=4 on a machine with at least 4 CPUs, parity
//     within -tol elsewhere). A committed baseline from another machine
//     is reported for context but never fails the gate.
//   - allocs/op is deterministic for a fixed workload, so -check gates it
//     ABSOLUTELY against the committed baseline: the optimized engine may
//     not allocate more than the recorded count (beyond -tol slack for
//     scheduling jitter in the parallel workloads).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"chipletnet"
	"chipletnet/internal/dse"
	"chipletnet/internal/experiments"
)

// workload is one gated benchmark: a body run under testing.Benchmark
// and the minimum optimized-over-baseline speedup it must demonstrate.
type workload struct {
	name string
	// minSpeedup gates baseline-ns / optimized-ns: 2.0 where the
	// optimized engine must win outright, 0.9 where parity is enough.
	minSpeedup float64
	fn         func(b *testing.B)
}

// enginePair names a suite's baseline and optimized cycle engines: each
// workload runs under both, and the relative gate compares them. The
// keys are the Engines map keys in the JSON file.
type enginePair struct {
	baseKey, optKey string
	setBase, setOpt func()
}

// refVsActive is the engine pair of the original hot-path suites: the
// naive reference stepper as baseline, the active-set engine optimized.
func refVsActive() enginePair {
	return enginePair{
		baseKey: "reference", optKey: "active",
		setBase: useEngine(string(chipletnet.EngineReference)),
		setOpt:  useEngine(string(chipletnet.EngineActive)),
	}
}

// useEngine returns a setter installing the named cycle engine.
func useEngine(engine string) func() {
	return func() {
		if err := chipletnet.SetEngine(engine); err != nil {
			panic(err)
		}
	}
}

// islandsMode selects the islands suite's measured side: false runs the
// serial active-set engine, true parallel islands with the island count
// each workload body installs. Toggled by the suite's enginePair.
var islandsMode bool

// activeVsIslands is the islands suite's pair: the serial active-set
// engine (the previous champion) as baseline, parallel islands optimized.
func activeVsIslands() enginePair {
	return enginePair{
		baseKey: "active", optKey: "islands",
		setBase: func() { islandsMode = false },
		setOpt:  func() { islandsMode = true },
	}
}

// measurement is one engine's result on one workload.
type measurement struct {
	Name        string
	N           int
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
	Extra       map[string]float64 `json:",omitempty"`
}

// benchFile is the serialized BENCH_hotpath.json.
type benchFile struct {
	Note    string
	GoArch  string
	Engines map[string][]measurement // keyed by engine name, e.g. "reference"/"active"
}

func lowCfg() chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(6) // 64 chiplets, 1024 routers
	cfg.InjectionRate = 0.05
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	return cfg
}

func workloads() []workload {
	return []workload{
		{
			// The headline case for active-set scheduling: a 1024-router
			// fabric at 0.05 flits/node/cycle is mostly idle, and a full
			// per-cycle walk wastes almost all of its time.
			name: "run-low-hypercube6", minSpeedup: 2.0,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := lowCfg()
				for i := 0; i < b.N; i++ {
					if _, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The low-rate Fig. 11 points at quick scale, swept in parallel.
			name: "fig11-low-rates", minSpeedup: 2.0,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := lowCfg()
				cfg.WarmupCycles = experiments.Quick.WarmupCycles
				cfg.MeasureCycles = experiments.Quick.MeasureCycles
				cfgs := []chipletnet.Config{cfg, cfg}
				cfgs[0].InjectionRate, cfgs[1].InjectionRate = 0.05, 0.1
				for i := 0; i < b.N; i++ {
					_, errs := chipletnet.RunBatch(context.Background(), cfgs)
					if err := errors.Join(errs...); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// Moderate load: most routers busy most cycles, so the active
			// sets buy little — the gate is parity with the reference walk.
			name: "run-mid-hypercube6", minSpeedup: 0.9,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := lowCfg()
				cfg.InjectionRate = 0.3
				for i := 0; i < b.N; i++ {
					if _, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The warm-reuse bisection: Build once, Reset between probes.
			name: "saturation-warm-hypercube4", minSpeedup: 0.9,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := chipletnet.DefaultConfig()
				cfg.Topology = chipletnet.HypercubeTopology(4)
				cfg.WarmupCycles = 100
				cfg.MeasureCycles = 500
				for i := 0; i < b.N; i++ {
					if _, err := chipletnet.SaturationRate(cfg, 0.05, 0.6, 0.1); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}

// dseSpace is the benchmark exploration: small enough that a cold run
// takes fractions of a second, wide enough to exercise enumeration,
// verification, simulation and frontier extraction.
func dseSpace() (dse.Space, dse.Params) {
	s := dse.Space{
		Chiplets:      8,
		Topologies:    []string{"mesh", "hypercube", "tree"},
		Routings:      []string{dse.RoutingMFR, dse.RoutingAdaptive},
		Interleavings: []string{"none"},
	}
	p := dse.DefaultParams()
	p.WarmupCycles = 100
	p.MeasureCycles = 300
	p.Rates = []float64{0.1, 0.4}
	return s, p
}

// dseWorkloads benchmarks the design-space-exploration pipeline. The
// cache-warm and cache-hit paths never reach the simulator, so the
// engine-speedup gate is disabled (minSpeedup 0) everywhere except the
// cold exploration, which is simulation-bound and must hold parity.
func dseWorkloads() []workload {
	return []workload{
		{
			name: "dse-explore-cold", minSpeedup: 0.9,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				s, p := dseSpace()
				for i := 0; i < b.N; i++ {
					cache, err := dse.OpenCache("")
					if err != nil {
						b.Fatal(err)
					}
					if _, err := dse.Explore(s, p, cache); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// A warmed cache must eliminate simulation entirely; what is
			// left is enumeration, the verify pre-flight, cache lookups
			// and frontier extraction.
			name: "dse-explore-warm", minSpeedup: 0,
			fn: func(b *testing.B) {
				s, p := dseSpace()
				cache, err := dse.OpenCache("")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dse.Explore(s, p, cache); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o, err := dse.Explore(s, p, cache)
					if err != nil {
						b.Fatal(err)
					}
					if o.Simulated != 0 {
						b.Fatalf("warm exploration simulated %d candidates", o.Simulated)
					}
				}
			},
		},
		{
			// The per-candidate cache-hit path: content-hash the resolved
			// config, look it up, find the record.
			name: "dse-cache-hit", minSpeedup: 0,
			fn: func(b *testing.B) {
				cfg := chipletnet.DefaultConfig()
				p := dse.DefaultParams()
				cache, err := dse.OpenCache("")
				if err != nil {
					b.Fatal(err)
				}
				key := dse.Key(cfg, p)
				if err := cache.Put(dse.Record{Key: key, Name: "bench", Cfg: cfg}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := cache.Lookup(dse.Key(cfg, p)); !ok {
						b.Fatal("cache miss on a warmed key")
					}
				}
			},
		},
	}
}

// compiledCfg is the compiled-routing benchmark shape: moderate load on a
// 16-chiplet hypercube, so routing lookups are a visible fraction of the
// cycle work and the table-vs-interpreter difference shows.
func compiledCfg() chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(4)
	cfg.InjectionRate = 0.3
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	return cfg
}

// compiledWorkloads benchmarks the certified flat-array routing tables:
// the identical run under compiled and interpreted routing (their ns/op
// sit side by side in BENCH_compiled.json), and the one-off Build cost of
// the certifying traversal + table compilation. Results are bit-identical
// between the two routings (TestCompiledEngineEquivalence), so only cost
// is at stake here; the committed allocs/op baseline is the -check gate.
func compiledWorkloads() []workload {
	simLoop := func(compiled bool) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := compiledCfg()
			cfg.CompiledRouting = compiled
			sys, err := chipletnet.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 {
					sys.Reset()
				}
				if _, err := sys.Simulate(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []workload{
		// The certifying traversal is a Build-time one-off, so the two
		// simulation workloads Build outside the timer and Reset between
		// iterations: what is measured is the steady-state per-cycle cost
		// with table lookups vs per-hop MFR/Duato evaluation.
		{name: "sim-mid-compiled-hc4", minSpeedup: 0.9, fn: simLoop(true)},
		{name: "sim-mid-interpreted-hc4", minSpeedup: 0.9, fn: simLoop(false)},
		{
			// Certification + compilation is a Build-time one-off; the
			// cycle engine never runs, so the engine-speedup gate is off.
			name: "compile-build-hc4", minSpeedup: 0,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := compiledCfg()
				cfg.CompiledRouting = true
				for i := 0; i < b.N; i++ {
					if _, err := chipletnet.Build(cfg); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}

// islandsCfg is the islands-suite workload shape: the 256-chiplet
// steady-state run ROADMAP names as the scale band where one-goroutine
// runs become the DSE bottleneck. HypercubeTopology(8) is 256 chiplets
// (4096 routers); 0.3 flits/node/cycle keeps most routers busy most
// cycles, so the active sets buy nothing and the win must come from the
// parallel islands alone.
func islandsCfg() chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(8)
	cfg.InjectionRate = 0.3
	cfg.WarmupCycles = 50
	cfg.MeasureCycles = 200
	return cfg
}

// islandsWorkloads benchmarks the parallel-islands engine against the
// serial active-set engine. The K=4 workload must show >= 1.5x — a gate
// that only makes physical sense with at least 4 CPUs, so on smaller
// machines (CI runners included) it degrades to the parity floor and
// the JSON Note records which gate the committed numbers were taken
// under. K=1 must never regress below parity: a single-island partition
// runs the same serial sweep as the active engine plus classification,
// and that overhead must stay in the noise.
func islandsWorkloads() []workload {
	run := func(k int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			engine := string(chipletnet.EngineActive)
			if islandsMode {
				engine = fmt.Sprintf("islands:%d", k)
			}
			useEngine(engine)()
			cfg := islandsCfg()
			for i := 0; i < b.N; i++ {
				if _, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	k4Min := 1.5
	if runtime.NumCPU() < 4 {
		k4Min = 0.9
	}
	return []workload{
		{name: "steady-256-k4", minSpeedup: k4Min, fn: run(4)},
		{name: "steady-256-k1", minSpeedup: 0.9, fn: run(1)},
	}
}

// workloadBenchCfg is the workload-suite shape: mid-load on a 16-chiplet
// hypercube, long enough that steady-state injection dominates the
// per-run setup (Build, trace load).
func workloadBenchCfg() chipletnet.Config {
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(4)
	cfg.InjectionRate = 0.2
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	return cfg
}

// workloadReplayMode selects the workload suite's measured side: false
// runs the synthetic Bernoulli process, true replays the trace recorded
// from that exact run. Toggled by the suite's enginePair.
var workloadReplayMode bool

// workloadTracePath is the trace the replay side loads, recorded once at
// suite setup from the baseline configuration.
var workloadTracePath string

// syntheticVsReplay is the workload suite's pair: the synthetic process
// as baseline, causal trace replay as the measured side. The cycle
// engine itself stays the active-set engine on both sides; what the
// relative gate bounds is the replay machinery — trace load, cursor
// bookkeeping, the per-delivery dependency check.
func syntheticVsReplay() enginePair {
	return enginePair{
		baseKey: "synthetic", optKey: "replay",
		setBase: func() { workloadReplayMode = false },
		setOpt:  func() { workloadReplayMode = true },
	}
}

// workloadWorkloads benchmarks trace replay against the synthetic run it
// was recorded from. The 0.84 floor on synthetic-ns / replay-ns is the
// replay-overhead gate: replay may cost at most ~1.2x the equivalent
// synthetic run. The aiscaleout workload runs identically on both sides
// (the mode toggle does not affect it), so its gate is parity-with-itself
// — its ns/op and allocs/op in the JSON are what the -check gate tracks.
func workloadWorkloads() []workload {
	return []workload{
		{
			name: "replay-mid-hc4", minSpeedup: 0.84,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := workloadBenchCfg()
				if workloadReplayMode {
					cfg.Workload = "replay:" + workloadTracePath
				}
				for i := 0; i < b.N; i++ {
					if _, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name: "aiscaleout-hc4", minSpeedup: 0.9,
			fn: func(b *testing.B) {
				b.ReportAllocs()
				cfg := workloadBenchCfg()
				cfg.Workload = "aiscaleout:allreduce-ring,data=128,compute=100,memrate=0.05,reqrate=0.02"
				for i := 0; i < b.N; i++ {
					if _, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{}); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}

// recordWorkloadTrace cuts the workload suite's replay input: the
// baseline configuration run once with the recorder attached.
func recordWorkloadTrace() (string, error) {
	dir, err := os.MkdirTemp("", "chipletbench-workload")
	if err != nil {
		return "", err
	}
	path := dir + "/bench.trace"
	if _, err := chipletnet.Run(context.Background(), workloadBenchCfg(), chipletnet.RunControl{TracePath: path}); err != nil {
		return "", err
	}
	return path, nil
}

// suiteWorkloads returns the selected suite's workloads and engine pair.
func suiteWorkloads(suite string) ([]workload, enginePair, error) {
	switch suite {
	case "hotpath":
		return workloads(), refVsActive(), nil
	case "dse":
		return dseWorkloads(), refVsActive(), nil
	case "compiled":
		return compiledWorkloads(), refVsActive(), nil
	case "islands":
		return islandsWorkloads(), activeVsIslands(), nil
	case "workload":
		path, err := recordWorkloadTrace()
		if err != nil {
			return nil, enginePair{}, fmt.Errorf("recording the workload-suite trace: %w", err)
		}
		workloadTracePath = path
		return workloadWorkloads(), syntheticVsReplay(), nil
	}
	return nil, enginePair{}, fmt.Errorf("unknown suite %q: want hotpath, dse, compiled, islands or workload", suite)
}

// measure runs every workload count times under the selected engine and
// keeps each workload's fastest run (minimum ns/op).
func measure(ws []workload, set func(), count int) []measurement {
	set()
	defer useEngine(string(chipletnet.EngineActive))()
	var out []measurement
	for _, w := range ws {
		var best testing.BenchmarkResult
		for c := 0; c < count; c++ {
			r := testing.Benchmark(w.fn)
			if c == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		m := measurement{
			Name:        w.name,
			N:           best.N,
			NsPerOp:     float64(best.NsPerOp()),
			BytesPerOp:  best.AllocedBytesPerOp(),
			AllocsPerOp: best.AllocsPerOp(),
		}
		if len(best.Extra) > 0 {
			m.Extra = map[string]float64{}
			for k, v := range best.Extra {
				m.Extra[k] = v
			}
		}
		out = append(out, m)
		fmt.Printf("  %-28s %12.0f ns/op %10d allocs/op  (N=%d)\n", w.name, m.NsPerOp, m.AllocsPerOp, m.N)
	}
	return out
}

func byName(ms []measurement) map[string]measurement {
	out := map[string]measurement{}
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

func main() {
	out := flag.String("out", "", "write measurements of both engines to this JSON file")
	check := flag.String("check", "", "gate against this committed baseline JSON; exit 1 on regression")
	count := flag.Int("count", 1, "runs per workload per engine; the fastest is kept")
	tol := flag.Float64("tol", 0.10, "relative tolerance for the gates")
	suite := flag.String("suite", "hotpath", "workload suite: hotpath | dse | compiled | islands | workload")
	flag.Parse()

	ws, eng, err := suiteWorkloads(*suite)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s engine (baseline):\n", eng.baseKey)
	ref := measure(ws, eng.setBase, *count)
	fmt.Printf("%s engine (optimized):\n", eng.optKey)
	act := measure(ws, eng.setOpt, *count)

	refBy, actBy := byName(ref), byName(act)
	failed := false
	fmt.Printf("speedup (%s / %s):\n", eng.baseKey, eng.optKey)
	for _, w := range ws {
		r, a := refBy[w.name], actBy[w.name]
		speedup := r.NsPerOp / a.NsPerOp
		verdict := "ok"
		if speedup < w.minSpeedup*(1-*tol) {
			verdict = fmt.Sprintf("FAIL (need %.2fx)", w.minSpeedup)
			failed = true
		}
		fmt.Printf("  %-28s %6.2fx  %s\n", w.name, speedup, verdict)
	}

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fatalf("%v", err)
		}
		var base benchFile
		if err := json.Unmarshal(data, &base); err != nil {
			fatalf("parsing %s: %v", *check, err)
		}
		baseAct := byName(base.Engines[eng.optKey])
		fmt.Printf("against baseline %s:\n", *check)
		for _, w := range ws {
			b, ok := baseAct[w.name]
			if !ok {
				fmt.Printf("  %-28s not in baseline; re-run with -out to record it\n", w.name)
				failed = true
				continue
			}
			a := actBy[w.name]
			// Allocation counts are machine-independent: gate absolutely.
			limit := int64(float64(b.AllocsPerOp)*(1+*tol)) + 64
			if a.AllocsPerOp > limit {
				fmt.Printf("  %-28s FAIL: %d allocs/op, baseline %d\n", w.name, a.AllocsPerOp, b.AllocsPerOp)
				failed = true
				continue
			}
			// Wall clock is not: report the drift, never fail on it.
			fmt.Printf("  %-28s ok: %d allocs/op (baseline %d), ns/op %+.0f%% vs baseline machine\n",
				w.name, a.AllocsPerOp, b.AllocsPerOp, 100*(a.NsPerOp-b.NsPerOp)/b.NsPerOp)
		}
	}

	if *out != "" {
		note := "hot-path benchmark baseline; regenerate with `make bench-json`"
		switch *suite {
		case "dse":
			note = fmt.Sprintf("design-space-exploration benchmark baseline, measured on %d CPU(s) "+
				"(NewPlan verifies routing structures on GOMAXPROCS workers); regenerate with "+
				"`make bench-dse-json`", runtime.NumCPU())
		case "compiled":
			note = "compiled routing-table benchmark baseline; regenerate with `make bench-compiled`"
		case "islands":
			note = fmt.Sprintf("parallel-islands benchmark baseline, measured on %d CPU(s); "+
				"the 1.5x steady-256-k4 speedup gate applies on machines with >= 4 CPUs "+
				"and degrades to the 0.9x parity floor below that (the relative gate is "+
				"always re-measured in-process, never read from this file); regenerate "+
				"with `make bench-workload`", runtime.NumCPU())
		case "workload":
			note = "trace-replay benchmark baseline: the synthetic run vs a causal replay " +
				"of its own recorded trace; the 0.84 relative floor bounds replay overhead " +
				"at ~1.2x and is re-measured in-process on every run; regenerate with " +
				"`make bench-workload`"
		}
		f := benchFile{
			Note:    note,
			GoArch:  runtime.GOOS + "/" + runtime.GOARCH,
			Engines: map[string][]measurement{eng.baseKey: ref, eng.optKey: act},
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chipletbench: "+format+"\n", args...)
	os.Exit(1)
}
