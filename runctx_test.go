package chipletnet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func ctxTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = Topology{Kind: "mesh", Dims: []int{2, 2}}
	cfg.ChipletW, cfg.ChipletH = 3, 3
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	return cfg
}

// rateSweep runs cfg at every injection rate through RunBatch and
// returns the results in rate order alongside the joined per-rate errors.
func rateSweep(cfg Config, rates []float64) ([]Result, error) {
	cfgs := make([]Config, len(rates))
	for i, r := range rates {
		cfgs[i] = cfg
		cfgs[i].InjectionRate = r
	}
	results, errs := RunBatch(context.Background(), cfgs)
	return results, errors.Join(errs...)
}

func TestRunBatchPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{ctxTestConfig(), ctxTestConfig()}
	_, errs := RunBatch(ctx, cfgs)
	err := errors.Join(errs...)
	if err == nil {
		t.Fatal("RunBatch under a pre-canceled context returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error does not wrap ErrCanceled: %v", err)
	}
}

func TestRunBatchPreCanceledSkipsAll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{ctxTestConfig(), ctxTestConfig(), ctxTestConfig()}
	results, errs := RunBatch(ctx, cfgs)
	if len(results) != len(cfgs) || len(errs) != len(cfgs) {
		t.Fatalf("got %d results / %d errs, want %d each", len(results), len(errs), len(cfgs))
	}
	// Every configuration was skipped before starting, and each reports
	// the typed cancellation individually.
	for i, e := range errs {
		if !errors.Is(e, ErrCanceled) {
			t.Errorf("errs[%d] does not wrap ErrCanceled: %v", i, e)
		}
		if results[i].DeliveredPackets != 0 {
			t.Errorf("errs[%d]: skipped run delivered %d packets, want 0", i, results[i].DeliveredPackets)
		}
	}
}

func TestRunBatchCancelMidRun(t *testing.T) {
	// A window long enough that cancellation always lands mid-simulation.
	cfg := ctxTestConfig()
	cfg.MeasureCycles = 50_000_000
	cfg.DeadlockThreshold = 0

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, errs := RunBatch(ctx, []Config{cfg})
		done <- errs[0]
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("mid-run cancel error does not wrap ErrCanceled: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatch did not return promptly after cancel")
	}
}

func TestRunBatchCancelSkipsPending(t *testing.T) {
	// One long run followed by many queued ones: canceling while the
	// first runs must abort it AND skip the not-yet-started rest, each
	// with the typed error.
	long := ctxTestConfig()
	long.MeasureCycles = 50_000_000
	long.DeadlockThreshold = 0
	cfgs := make([]Config, 64)
	for i := range cfgs {
		cfgs[i] = long
	}

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		results []Result
		errs    []error
	}
	done := make(chan outcome, 1)
	go func() {
		r, e := RunBatch(ctx, cfgs)
		done <- outcome{r, e}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case out := <-done:
		for i, e := range out.errs {
			if !errors.Is(e, ErrCanceled) {
				t.Errorf("errs[%d] does not wrap ErrCanceled: %v", i, e)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatch did not return promptly after cancel")
	}
}

func TestRunBatchBackgroundMatchesRun(t *testing.T) {
	// A background (never-canceled) context must not perturb results:
	// the context path only observes Done() at cycle boundaries, so a
	// completed run is bit-identical to an uncontrolled one.
	cfg := ctxTestConfig()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	ctxed, errs := RunBatch(context.Background(), []Config{cfg})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !reflect.DeepEqual(plain, ctxed[0]) {
		t.Errorf("background-context run differs from plain run:\n got %+v\nwant %+v", ctxed[0], plain)
	}
}

// TestSimulateMatchesRun: Simulate is Run's uncontrolled case, down to
// the serialized Result.
func TestSimulateMatchesRun(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	cfg.Fault.BER = 5e-4
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(context.Background(), cfg, RunControl{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, plain), resultJSON(t, run); got != want {
		t.Errorf("Build+Simulate differs from Run\n got: %s\nwant: %s", got, want)
	}
}

// TestRunContextTimeout: a context deadline that expires mid-run stops
// the run with an error wrapping context.DeadlineExceeded.
func TestRunContextTimeout(t *testing.T) {
	cfg := ctxTestConfig()
	cfg.MeasureCycles = 50_000_000
	cfg.DeadlockThreshold = 0
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, cfg, RunControl{})
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
	if !res.TimedOut || res.DeadlockReport == nil {
		t.Errorf("TimedOut=%v DeadlockReport=%v, want both set", res.TimedOut, res.DeadlockReport)
	}
}

// TestResumeCanceledContext: resuming under a done context stops with
// ErrCanceled before any checkpoint write, leaving the file untouched.
func TestResumeCanceledContext(t *testing.T) {
	cfg := ckptTestConfig(HypercubeTopology(3))
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Run(context.Background(), cfg, RunControl{CheckpointPath: path, InterruptAtCycle: 200}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Resume(ctx, path, RunControl{CheckpointPath: path, CheckpointEvery: 1}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("canceled resume rewrote the checkpoint")
	}
}
