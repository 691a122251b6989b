package chipletnet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"chipletnet/internal/router"
	"chipletnet/internal/verify"
)

// verifyBatchConfigs mixes certified, rejected and unbuildable designs.
func verifyBatchConfigs() []Config {
	mesh := ctxTestConfig()
	cube := ctxTestConfig()
	cube.Topology = HypercubeTopology(3)
	equal := ctxTestConfig()
	equal.Topology = NDMeshTopology(3, 2, 2)
	equal.ChipletW, equal.ChipletH = 4, 4
	equal.DisableNDMeshVCSeparation = true
	equal.AllowUnsafeRouting = true
	bad := ctxTestConfig()
	bad.Topology = Topology{Kind: "no-such-kind"}
	su := cube
	su.Routing = RoutingSafeUnsafe
	return []Config{mesh, equal, bad, cube, su, mesh}
}

// TestVerifyBatchInputOrder: reports and errors come back in input order,
// each equal to a serial VerifyConfig of the same configuration, however
// the pool schedules them.
func TestVerifyBatchInputOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opt := verify.Options{MaxDests: 16, MaxSources: 8}
	cfgs := verifyBatchConfigs()
	reports, errs := VerifyBatch(context.Background(), cfgs, opt)
	if len(reports) != len(cfgs) || len(errs) != len(cfgs) {
		t.Fatalf("got %d reports / %d errs for %d configs", len(reports), len(errs), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, werr := VerifyConfig(cfg, opt)
		if (errs[i] == nil) != (werr == nil) {
			t.Errorf("config %d: batch error %v, serial error %v", i, errs[i], werr)
			continue
		}
		if errs[i] != nil {
			if reports[i] != nil {
				t.Errorf("config %d: report alongside build error %v", i, errs[i])
			}
			continue
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Errorf("config %d: batch report differs from serial:\n%s\nvs\n%s", i, reports[i], want)
		}
	}
	if errs[2] == nil {
		t.Error("unbuildable config verified without error")
	}
	if reports[1] == nil || reports[1].Err() == nil {
		t.Error("equal-channel config not rejected")
	}
}

// TestVerifyBatchPreCanceled: a batch under a done context starts
// nothing; every configuration reports the typed cancellation.
func TestVerifyBatchPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := verifyBatchConfigs()
	reports, errs := VerifyBatch(ctx, cfgs, verify.Options{})
	for i := range cfgs {
		if !errors.Is(errs[i], ErrCanceled) || !errors.Is(errs[i], context.Canceled) {
			t.Errorf("errs[%d] = %v, want ErrCanceled wrapping context.Canceled", i, errs[i])
		}
		if reports[i] != nil {
			t.Errorf("reports[%d] set for a skipped config", i)
		}
	}
}

// TestVerifyBatchRejectsSink: a state sink would be fed interleaved
// states by concurrent analyses, so the batch refuses it per config.
func TestVerifyBatchRejectsSink(t *testing.T) {
	reports, errs := VerifyBatch(context.Background(), verifyBatchConfigs()[:2], verify.Options{Sink: nopSink{}})
	for i := range errs {
		if errs[i] == nil || reports[i] != nil {
			t.Errorf("config %d: sink accepted (err %v)", i, errs[i])
		}
	}
}

type nopSink struct{}

func (nopSink) State(node, dst, tag int, cands []router.Candidate, nsort int) {}

// TestVerifyBatchRecoversPanic: the pool VerifyBatch and RunBatch share
// turns a panic into that index's error and still runs every other
// index.
func TestVerifyBatchRecoversPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ran := make([]bool, 8)
	errs := forEach(context.Background(), len(ran), 3, func(i int) error {
		ran[i] = true
		if i == 5 {
			panic("boom")
		}
		return nil
	})
	for i, err := range errs {
		if !ran[i] {
			t.Errorf("index %d never ran", i)
		}
		if i == 5 {
			if err == nil || !strings.Contains(err.Error(), "panic: boom") {
				t.Errorf("errs[5] = %v, want the recovered panic", err)
			}
		} else if err != nil {
			t.Errorf("errs[%d] = %v, want nil", i, err)
		}
	}
}
