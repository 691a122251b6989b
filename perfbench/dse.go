package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"chipletnet"
	"chipletnet/internal/dse"
)

// dseSetups is how many times a dse-16 run times a cold set-up (store
// open plus NewPlan on a fresh store); setup_s is their median.
const dseSetups = 5

// dseWarmPasses is how many warm passes follow each cold pass.
const dseWarmPasses = 2

// The dse-16 space: 16 chiplets, five topology families, two routing
// modes, two interleavings (44 verified candidates), evaluated at rates
// {0.1, 0.3, 0.5}; everything else is the program's default.
func dseSpace() dse.Space {
	return dse.Space{
		Chiplets:      16,
		Topologies:    []string{"mesh", "hypercube", "tree", "ndmesh", "dragonfly"},
		Routings:      []string{dse.RoutingMFR, dse.RoutingAdaptive},
		Interleavings: []string{"none", "message"},
	}
}

func dseParams(seed uint64) dse.Params {
	return dse.Params{Rates: []float64{0.1, 0.3, 0.5}, Seed: seed}
}

func dseGoldenKey(seed uint64) string { return fmt.Sprintf("dse-16/seed%d", seed) }

// storeDir returns a fresh, empty directory for a sharded store. The
// trailing separator makes dse.OpenStore choose the sharded layout.
func (r *report) storeDir(name string) (string, error) {
	dir := filepath.Join(r.outDir, "stores", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir + string(os.PathSeparator), nil
}

// explore runs one pass: open the store at dir, explore, render the
// report, close. It returns the outcome, the report bytes and the pass's
// wall seconds.
func explore(dir string, seed uint64) (*dse.Outcome, []byte, float64, error) {
	t := time.Now()
	st, err := dse.OpenStore(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	out, err := dse.Explore(dseSpace(), dseParams(seed), st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	sec := time.Since(t).Seconds()
	if err != nil {
		return nil, nil, sec, err
	}
	var buf bytes.Buffer
	if err := dse.WriteReportJSON(&buf, out); err != nil {
		return nil, nil, sec, err
	}
	return out, buf.Bytes(), sec, nil
}

// checkPass checks a pass's outcome: a cold pass simulates every verified
// candidate, a warm pass none, and every report equals the cold one.
func (r *report) checkPass(out *dse.Outcome, rep, cold []byte, warm bool) {
	n := len(out.Records)
	if warm {
		r.check(out.Simulated == 0 && out.CacheHits == n, "warm pass simulated %d of %d candidates", out.Simulated, n)
		r.check(bytes.Equal(rep, cold), "warm report differs from the cold report")
	} else {
		r.check(out.Simulated == n && out.CacheHits == 0, "cold pass simulated %d of %d candidates", out.Simulated, n)
	}
}

func dseRunner(r *report, seed uint64, seconds float64, traced bool) {
	if !r.op(chipletnet.SetEngine(string(chipletnet.EngineActive))) {
		return
	}
	if traced {
		r.traceRepeatedly(seconds, func(v map[string]float64) bool {
			return runDSETraced(r, v, seed)
		})
	} else {
		runDSE(r, seed, seconds)
	}
}

// runDSE measures the end-to-end metrics: dseSetups timed cold set-ups,
// then rounds of one cold pass into a fresh sharded store and
// dseWarmPasses warm passes re-opening it from disk, until the budget is
// spent (at least one round). It then re-simulates the cold pass's runs to
// count the router-cycles and flit-hops it simulated, and checks them
// against the records.
func runDSE(r *report, seed uint64, seconds float64) {
	start := time.Now()
	var setup []float64
	for i := 0; i < dseSetups; i++ {
		dir, err := r.storeDir("setup")
		if !r.op(err) {
			return
		}
		t := time.Now()
		st, err := dse.OpenStore(dir)
		if !r.op(err) {
			return
		}
		plan, err := dse.NewPlan(dseSpace(), dseParams(seed), st)
		setup = append(setup, time.Since(t).Seconds())
		if !r.op(err) {
			return
		}
		r.check(len(plan.Hits) == 0 && len(plan.Pending) == len(plan.Candidates),
			"fresh store: %d hits, %d pending of %d candidates", len(plan.Hits), len(plan.Pending), len(plan.Candidates))
		r.op(st.Close())
		r.op(os.RemoveAll(dir))
	}

	var coldS, warmS []float64
	var first *dse.Outcome
	var golden []byte
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		settle()
		dir, err := r.storeDir("explore")
		if !r.op(err) {
			return
		}
		out, cold, sec, err := explore(dir, seed)
		if !r.op(err) {
			return
		}
		r.checkPass(out, cold, nil, false)
		coldS = append(coldS, sec)
		if round == 0 {
			first, golden = out, cold
			r.matchGolden(dseGoldenKey(seed), sha(cold))
		}
		r.check(bytes.Equal(cold, golden), "round %d: cold report differs from round 0", round)
		for i := 0; i < dseWarmPasses; i++ {
			wout, warm, sec, err := explore(dir, seed)
			if !r.op(err) {
				return
			}
			r.checkPass(wout, warm, cold, true)
			warmS = append(warmS, sec)
		}
		r.op(os.RemoveAll(dir))
		fmt.Printf("round %d: cold %.4f s, warm %v s\n", round, coldS[round], warmS[len(warmS)-dseWarmPasses:])
		if round == 0 {
			r.peakRSSMB()
		}
	}

	rc, fh := replayCold(r, first)
	cold := median(coldS)
	fmt.Printf("setup %v s; explore_cold_s %.4f (%d rounds), explore_warm_s %.4f; cold pass simulated %d router-cycles, %d flit-hops\n",
		setup, cold, len(coldS), median(warmS), rc, fh)
	r.values["setup_s"] = median(setup)
	r.values["router_cycles_per_s"] = float64(rc) / cold
	r.values["flit_hops_per_s"] = float64(fh) / cold
}

// replayCold re-simulates every run the cold pass made (each record's
// zero-load probe and rate ladder, as dse.Eval.Run builds them) through
// chipletnet.Build and System.Simulate, on at most nproc workers. It
// returns the router-cycles and flit-hops those runs simulated, and
// checks every re-simulated statistic against the record: a mismatch is
// a failed operation.
func replayCold(r *report, out *dse.Outcome) (routerCycles, flitHopCount int64) {
	p := out.Plan.Params
	type job struct {
		rec  int
		rung int // -1 for the zero-load probe
		cfg  chipletnet.Config
	}
	var jobs []job
	for i, rec := range out.Records {
		c := rec.Cfg
		c.InjectionRate = p.ZeroLoadRate
		jobs = append(jobs, job{i, -1, c})
		for j, rate := range p.Rates {
			c := rec.Cfg
			c.InjectionRate = rate
			jobs = append(jobs, job{i, j, c})
		}
	}
	type result struct {
		res    chipletnet.Result
		rc, fh int64
		err    error
	}
	results := make([]result, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sys, err := chipletnet.Build(jobs[i].cfg)
				if err != nil {
					results[i].err = err
					continue
				}
				res, err := sys.Simulate()
				f := sys.Topo.Fabric
				results[i] = result{res, int64(len(f.Routers)) * f.Now, flitHops(f), err}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, j := range jobs {
		res := results[i]
		if !r.op(res.err) {
			continue
		}
		routerCycles += res.rc
		flitHopCount += res.fh
		rec := out.Records[j.rec]
		if j.rung < 0 {
			if !math.IsNaN(res.res.AvgLatency) {
				r.check(res.res.AvgLatency == rec.ZeroLoadLatency && res.res.EnergyPJPerBit == rec.EnergyPJPerBit,
					"%s: re-simulated zero-load probe differs from the record", rec.Name)
			}
			continue
		}
		lp := rec.Ladder[j.rung]
		lat := res.res.AvgLatency
		if math.IsNaN(lat) {
			lat = 0
		}
		r.check(lp.AvgLatency == lat && lp.Accepted == res.res.AcceptedFlitsPerNodeCycle && lp.Saturated == res.res.Saturated(),
			"%s rate %g: re-simulated ladder point differs from the record", rec.Name, lp.Rate)
	}
	return routerCycles, flitHopCount
}
