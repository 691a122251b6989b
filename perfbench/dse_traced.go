package main

import (
	"bytes"
	"fmt"
	"os"

	"chipletnet/internal/dse"
)

// timingStore wraps a dse.Store and records every Lookup into the
// current lookup window span and every Put as a span of its own.
type timingStore struct {
	dse.Store
	tr           *tracer
	parent       int // span Puts are recorded under
	lookupWin    int // aggregated span Lookups are recorded into
	hits, misses int
}

func (s *timingStore) Lookup(key string) (dse.Record, bool) {
	t0 := s.tr.now()
	rec, ok := s.Store.Lookup(key)
	t1 := s.tr.now()
	s.tr.add(s.lookupWin, t1, t1-t0)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return rec, ok
}

func (s *timingStore) Put(rec dse.Record) error {
	sp := s.tr.begin("dse.cache.put", s.parent)
	defer s.tr.end(sp)
	return s.Store.Put(rec)
}

// dsePass is what the traced runner learns from one pass.
type dsePass struct {
	root       int
	store      *timingStore
	candidates int
	simulated  int
	simRuns    int
	frontier   int
	report     []byte
}

// tracedExplore runs one pass the way dse.Explore does, calling
// Space.Enumerate, NewPlan, Eval.Run, the store and Collect directly with
// a span around each call.
func tracedExplore(tr *tracer, name, dir string, seed uint64) (pass *dsePass, err error) {
	space, params := dseSpace(), dseParams(seed)
	root := tr.begin(name, -1)
	defer tr.end(root)
	pass = &dsePass{root: root}

	sp := tr.begin("dse.cache.open", root)
	st, err := dse.OpenStore(dir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	store := &timingStore{Store: st, tr: tr, parent: root}
	pass.store = store
	defer func() {
		sp := tr.begin("dse.cache.close", root)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		tr.end(sp)
	}()

	sp = tr.begin("dse.enumerate", root)
	cands, _, err := space.Enumerate(params)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	pass.candidates = len(cands)

	sp = tr.begin("dse.plan", root)
	store.lookupWin = tr.window("dse.cache.lookup", sp)
	plan, err := dse.NewPlan(space, params, store)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	recs := append([]dse.Record(nil), plan.Hits...)
	for _, e := range plan.Pending {
		sp = tr.begin("dse.eval", root)
		rec, err := e.Run()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := store.Put(rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		pass.simRuns += 1 + len(plan.Params.Rates)
	}

	sp = tr.begin("dse.collect", root)
	out, err := dse.Collect(plan, recs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	pass.simulated = out.Simulated
	pass.frontier = len(out.Frontier)

	sp = tr.begin("dse.report", root)
	var buf bytes.Buffer
	err = dse.WriteReportJSON(&buf, out)
	tr.end(sp)
	pass.report = buf.Bytes()
	return pass, err
}

// runDSETraced measures the per-layer metrics into v: one untraced cold
// and warm pass through dse.OpenStore and dse.Explore (Go runtime
// counters measured around the cold Explore), then one traced cold and warm
// pass. All four reports must be byte-identical, and neither warm pass
// may simulate.
func runDSETraced(r *report, v map[string]float64, seed uint64) bool {
	dir, err := r.storeDir("untraced")
	if !r.op(err) {
		return false
	}
	var out *dse.Outcome
	var cold []byte
	var coldSec float64
	measureGo(v, func() { out, cold, coldSec, err = explore(dir, seed) })
	if !r.op(err) {
		return false
	}
	r.checkPass(out, cold, nil, false)
	r.matchGolden(dseGoldenKey(seed), sha(cold))
	wout, warm, warmSec, err := explore(dir, seed)
	if !r.op(err) {
		return false
	}
	r.checkPass(wout, warm, cold, true)
	r.op(os.RemoveAll(dir))

	tr := newTracer()
	if dir, err = r.storeDir("traced"); !r.op(err) {
		return false
	}
	cp, err := tracedExplore(tr, "explore.cold", dir, seed)
	if !r.op(err) {
		return false
	}
	wp, err := tracedExplore(tr, "explore.warm", dir, seed)
	if !r.op(err) {
		return false
	}
	r.op(os.RemoveAll(dir))
	r.check(cp.simulated == len(out.Records) && bytes.Equal(cp.report, cold),
		"traced cold pass: %d simulated, report equal to untraced %v", cp.simulated, bytes.Equal(cp.report, cold))
	r.check(wp.simulated == 0 && bytes.Equal(wp.report, cold),
		"traced warm pass: %d simulated, report equal to untraced %v", wp.simulated, bytes.Equal(wp.report, cold))

	coldSelf, warmSelf := tr.selfTimes(cp.root), tr.selfTimes(wp.root)
	v["dse.explore_cold_s"] = coldSec
	v["dse.explore_warm_s"] = warmSec
	v["dse.enumerate_s"] = coldSelf["dse.enumerate"]
	v["dse.candidates"] = float64(cp.candidates)
	v["dse.plan_s"] = warmSelf["dse.plan"]
	v["dse.cache.open_s"] = warmSelf["dse.cache.open"]
	v["dse.cache.lookup_s"] = warmSelf["dse.cache.lookup"]
	if n := wp.store.hits + wp.store.misses; n > 0 {
		v["dse.cache.hit_ratio"] = float64(wp.store.hits) / float64(n)
	}
	v["dse.cache.put_s"] = coldSelf["dse.cache.put"]
	v["dse.cache.puts"] = float64(tr.calls("dse.cache.put"))
	v["dse.eval_s"] = coldSelf["dse.eval"]
	v["dse.sim_runs"] = float64(cp.simRuns)
	v["dse.collect_s"] = coldSelf["dse.collect"]
	v["dse.frontier_size"] = float64(cp.frontier)
	fmt.Printf("untraced: cold %.4f s, warm %.4f s\n", coldSec, warmSec)
	r.checkTrace(v, tr, seed, coldSec+warmSec)
	return true
}
