package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// rejectingSpace is a 16-chiplet space whose pre-flight rejects designs
// for two different reasons: every equal-channel candidate (Theorem 1's
// VC separation disabled) and ndtorus-8x2's adaptive escape cycle.
func rejectingSpace() Space {
	return Space{
		Chiplets:      16,
		Topologies:    []string{"ndmesh", "ndtorus", "hypercube"},
		Interleavings: []string{"none", "message"},
	}
}

// planGolden is the SHA-256 of rejectingSpace's plan JSON (with one
// seeded cache hit) as one-at-a-time verification produces it; the
// parallel pre-flight must reproduce it.
const planGolden = "03e4f3ce7cfbd1c9337b4fdd457358e989026c1cdc5d4471509dcdc79d04caf6"

// TestNewPlanParallelDeterminism: NewPlan certifies distinct routing
// structures concurrently, yet its Candidates, Rejected, Hits and Pending
// must not depend on the worker count — identical under GOMAXPROCS 1 and
// 4, and identical to the serial plan pinned by planGolden.
func TestNewPlanParallelDeterminism(t *testing.T) {
	p := DefaultParams()
	plan := func(procs int) *Plan {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cache, err := OpenCache("")
		if err != nil {
			t.Fatal(err)
		}
		cands, _, err := rejectingSpace().Enumerate(p)
		if err != nil {
			t.Fatal(err)
		}
		// Seed one hit so the hit/pending split is exercised too.
		for _, c := range cands {
			if c.Routing == RoutingAdaptive {
				if err := cache.Put(testRecord(Key(c.Cfg, p.normalize()), c.Name)); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		pl, err := NewPlan(rejectingSpace(), p, cache)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	one, four := plan(1), plan(4)

	if !reflect.DeepEqual(one.Candidates, four.Candidates) {
		t.Error("Candidates differ between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.Rejected, four.Rejected) {
		t.Errorf("Rejected differ between GOMAXPROCS 1 and 4:\n%v\n%v", one.Rejected, four.Rejected)
	}
	if !reflect.DeepEqual(one.Hits, four.Hits) {
		t.Error("Hits differ between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.Pending, four.Pending) {
		t.Error("Pending (order, Key, Cert) differ between GOMAXPROCS 1 and 4")
	}

	var equal, torusCycle bool
	for _, r := range one.Rejected {
		if r.Cert == "" || !strings.Contains(r.Reason, "cycle") {
			t.Errorf("%s: rejection without a certificate or cycle witness: %+v", r.Name, r)
		}
		equal = equal || strings.Contains(r.Name, "/"+RoutingEqualChannel+"/")
		torusCycle = torusCycle || strings.HasPrefix(r.Name, "ndtorus-8x2/") && strings.Contains(r.Name, "/"+RoutingAdaptive+"/")
	}
	if !equal || !torusCycle {
		t.Errorf("want equal-channel and ndtorus-8x2 adaptive rejections, got %v", one.Rejected)
	}
	if len(one.Hits) != 1 || len(one.Pending) == 0 {
		t.Errorf("want 1 hit and some pending, got %d hits, %d pending", len(one.Hits), len(one.Pending))
	}
	for _, e := range one.Pending {
		if e.Cert == "" {
			t.Errorf("%s: pending evaluation without a certificate", e.Candidate.Name)
		}
	}

	js, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != planGolden {
		t.Errorf("plan digest %s, want %s", got, planGolden)
	}
}

// BenchmarkNewPlan times the verify pre-flight of a 16-chiplet, 44-candidate
// exploration over an empty cache: every distinct routing structure is
// certified once.
func BenchmarkNewPlan(b *testing.B) {
	s := Space{
		Chiplets:      16,
		Topologies:    []string{"mesh", "hypercube", "tree", "ndmesh", "dragonfly"},
		Routings:      []string{RoutingMFR, RoutingAdaptive},
		Interleavings: []string{"none", "message"},
	}
	cache, err := OpenCache("")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(s, DefaultParams(), cache); err != nil {
			b.Fatal(err)
		}
	}
}
