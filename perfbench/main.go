// Command perfbench is the chipletnet end-to-end and per-layer benchmark.
//
// It runs one workload as a batch in this process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured through
// the public entry points (chipletnet.Build, System.Simulate,
// dse.OpenStore, dse.Explore) with no tracing. With -trace 1 a traced
// runner times the calls into each layer's public functions and the
// metrics are the per-layer ones. run.py builds and runs it; README.md
// describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric names and units. Every -trace 0 run prints every end-to-end
// metric and every -trace 1 run every per-layer metric; a per-layer
// metric that does not apply to the workload's kind reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"router_cycles_per_s", "1/s"},
	{"flit_hops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"routing.build_s", "s"},
	{"traffic.tick_s", "s"},
	{"traffic.injected_packets", "count"},
	{"router.step_s", "s"},
	{"router.router_cycles", "count"},
	{"router.flit_hops", "count"},
	{"router.active_router_ratio", "ratio"},
	{"stats.deliver_s", "s"},
	{"stats.delivered_packets", "count"},
	{"stats.summarize_s", "s"},
	{"go.gc_cpu_share", "ratio"},
	{"go.alloc_bytes", "B"},
	{"go.mallocs", "count"},
	{"dse.explore_cold_s", "s"},
	{"dse.explore_warm_s", "s"},
	{"dse.enumerate_s", "s"},
	{"dse.candidates", "count"},
	{"dse.plan_s", "s"},
	{"dse.cache.open_s", "s"},
	{"dse.cache.lookup_s", "s"},
	{"dse.cache.hit_ratio", "ratio"},
	{"dse.cache.put_s", "s"},
	{"dse.cache.puts", "count"},
	{"dse.eval_s", "s"},
	{"dse.sim_runs", "count"},
	{"dse.collect_s", "s"},
	{"dse.frontier_size", "count"},
	{"model.avg_latency_cycles", "cycles"},
	{"model.p99_latency_cycles", "cycles"},
	{"model.accepted_flits_per_node_cycle", "flits/node/cycle"},
	{"model.peak_offchip_util", "ratio"},
	{"islands.router_cycles_per_s", "1/s"},
	{"islands.speedup", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

type metricDef struct{ name, unit string }

// maxUnattributed is the largest share of the traced wall time that may
// fall outside every layer span (the traced runner's own glue) before the
// self-time accounting check fails the run.
const maxUnattributed = 0.05

// workloadRunner runs one workload and fills the run's report.
type workloadRunner func(r *report, seed uint64, seconds float64, traced bool)

var workloads = map[string]workloadRunner{
	"sparse-hc6": simRunner(simWorkload{dims: 6, rate: 0.05}),
	"dse-16":     dseRunner,
}

//go:embed goldens.json
var goldensJSON []byte

// goldens maps an input identity (see simWorkload.goldenKey and
// dseGoldenKey) to the SHA-256 of the outputs recorded for it with this
// benchmark.
var goldens map[string]string

// report accumulates one run's operation counts, check failures and
// metric values.
type report struct {
	workload  string
	outDir    string
	attempted int
	failed    int
	values    map[string]float64
}

// op counts one attempted operation; a non-nil err marks it failed and is
// printed.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Printf("FAIL %s: %v\n", r.workload, err)
		return false
	}
	return true
}

// check records a correctness check that is not an operation of its own:
// a failure marks the run failed without adding an attempt.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		fmt.Printf("FAIL %s: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// matchGolden compares an output digest with the recorded one for key,
// if any.
func (r *report) matchGolden(key, digest string) {
	want, ok := goldens[key]
	if !ok {
		fmt.Printf("golden %s: none recorded, digest %s\n", key, digest)
		return
	}
	r.check(want == digest, "golden %s: digest %s, recorded %s", key, digest, want)
	if want == digest {
		fmt.Printf("golden %s: match\n", key)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: sparse-hc6 or dse-16")
	seed := flag.Int64("seed", 1, "input seed (1 is the default seed, 2 the documented second seed)")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds, set-up included")
	trace := flag.Int("trace", 0, "1 runs the traced runner and prints the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the measured tree, for provenance")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps and scratch stores")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seed < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %g, trace %d)\n",
			*workload, *seed, *seconds, *trace)
		os.Exit(2)
	}
	if err := json.Unmarshal(goldensJSON, &goldens); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: goldens.json: %v\n", err)
		os.Exit(2)
	}
	// Thread budget: no run may ask for more worker threads than the
	// machine has CPUs.
	nproc := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS %d exceeds nproc %d\n", g, nproc)
		os.Exit(2)
	}
	prov, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": *commit,
	})
	fmt.Printf("provenance %s\n", prov)

	r := &report{workload: *workload, outDir: *out, values: map[string]float64{}}
	run(r, uint64(*seed), *seconds, *trace == 1)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v := r.values[d.name]
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("metric %-38s %-16s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	errorRate := 1.0
	if r.attempted > 0 {
		errorRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("metric %-38s %-16s %s\n", "error_rate", strconv.FormatFloat(errorRate, 'g', -1, 64), "ratio")
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest is the SHA-256 of v's JSON encoding; Go encodes float64 in the
// shortest form that round-trips, so equal digests mean bit-identical
// values.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// settle collects garbage and returns free memory to the OS, so every
// repetition starts from the same heap state.
func settle() { debug.FreeOSMemory() }

// peakRSSMB reads the process's peak resident set size (VmHWM) into
// peak_rss_mb. Runs read it after set-up and their first repetition, so
// it covers the same work however many repetitions the budget allows.
func (r *report) peakRSSMB() {
	b, err := os.ReadFile("/proc/self/status")
	if !r.op(err) {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if r.op(err) {
				r.values["peak_rss_mb"] = kb / 1024
			}
			return
		}
	}
	r.check(false, "no VmHWM line in /proc/self/status")
}

// goCounters samples the Go runtime's GC CPU time, busy CPU time, and
// cumulative heap allocation bytes and objects.
type goCounters struct{ gcCPU, busyCPU, allocBytes, mallocs float64 }

// measureGo runs fn and stores the Go runtime counters' change over it in
// v. The runtime updates its /cpu/classes metrics only when a GC cycle
// ends, so a forced collection on each side aligns their window with fn:
// go.gc_cpu_share covers fn plus one forced collection of its garbage.
// The allocation counters are exact at any read.
func measureGo(v map[string]float64, fn func()) {
	runtime.GC()
	a := readGoCounters()
	fn()
	runtime.GC()
	b := readGoCounters()
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		v["go.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / busy
	}
	v["go.alloc_bytes"] = b.allocBytes - a.allocBytes
	v["go.mallocs"] = b.mallocs - a.mallocs
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goCounters{gcCPU: val(0), busyCPU: val(1) - val(2), allocBytes: val(3), mallocs: val(4)}
}

// traceRepeatedly runs one traced iteration, then more until the budget
// is spent, and stores each per-layer metric's median over them. An
// iteration fills v and returns false if it could not complete.
func (r *report) traceRepeatedly(seconds float64, iter func(v map[string]float64) bool) {
	start := time.Now()
	var samples []map[string]float64
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		v := map[string]float64{}
		if !iter(v) {
			return
		}
		samples = append(samples, v)
	}
	for _, d := range perLayer {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s[d.name])
		}
		r.values[d.name] = median(xs)
	}
	fmt.Printf("traced iterations: %d\n", len(samples))
}

// checkTrace runs the self-time accounting check, stores the trace
// metrics in v, prints the self-time table and writes the spans out.
func (r *report) checkTrace(v map[string]float64, tr *tracer, seed uint64, untracedWall float64) {
	v["trace.overhead_ratio"] = tr.rootWall() / untracedWall
	un := tr.unattributed()
	v["trace.unattributed_share"] = un
	fmt.Print(tr.layerTable())
	r.check(un <= maxUnattributed, "self-time accounting: %.4f of the traced wall time is outside every layer span (limit %g)",
		un, maxUnattributed)
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, seed))
	if err := tr.write(path); err != nil {
		r.check(false, "writing spans: %v", err)
		return
	}
	fmt.Printf("spans written to %s\n", path)
}
