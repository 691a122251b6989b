package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"chipletnet"
	"chipletnet/internal/checkpoint"
)

func TestParseKills(t *testing.T) {
	kills, err := parseKills("500:0-16,1200:3-19")
	if err != nil {
		t.Fatal(err)
	}
	want := []chipletnet.FaultKill{
		{Cycle: 500, A: 0, B: 16},
		{Cycle: 1200, A: 3, B: 19},
	}
	if len(kills) != len(want) {
		t.Fatalf("got %d kills, want %d", len(kills), len(want))
	}
	for i := range want {
		if kills[i] != want[i] {
			t.Errorf("kill %d = %+v, want %+v", i, kills[i], want[i])
		}
	}
	for _, bad := range []string{"", "500", "500:0", "x:0-16", "500:0-16:2", "500:a-16"} {
		if _, err := parseKills(bad); err == nil {
			t.Errorf("parseKills(%q) accepted", bad)
		}
	}
}

func TestParseDegrades(t *testing.T) {
	degs, err := parseDegrades("300:0-16:2,900:3-19:4:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []chipletnet.FaultDegrade{
		{Cycle: 300, A: 0, B: 16, BandwidthDiv: 2, LatencyMult: 1},
		{Cycle: 900, A: 3, B: 19, BandwidthDiv: 4, LatencyMult: 3},
	}
	if len(degs) != len(want) {
		t.Fatalf("got %d degrades, want %d", len(degs), len(want))
	}
	for i := range want {
		if degs[i] != want[i] {
			t.Errorf("degrade %d = %+v, want %+v", i, degs[i], want[i])
		}
	}
	for _, bad := range []string{"300:0-16", "300:0-16:x", "300:0-16:2:3:4"} {
		if _, err := parseDegrades(bad); err == nil {
			t.Errorf("parseDegrades(%q) accepted", bad)
		}
	}
}

// TestMain doubles the test binary as chipletsim itself: with
// CHIPLETSIM_CHILD set the process runs main() on the provided argv, so
// exit codes and stderr diagnostics are asserted on a real process.
func TestMain(m *testing.M) {
	if os.Getenv("CHIPLETSIM_CHILD") == "1" {
		os.Args = append([]string{"chipletsim"}, strings.Fields(os.Getenv("CHIPLETSIM_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestResumeMismatchDiagnostic: -resume with a checkpoint whose snapshot
// no longer fits its embedded configuration must exit 1 with a
// diagnostic naming the mismatch, not crash or silently diverge.
func TestResumeMismatchDiagnostic(t *testing.T) {
	// Produce a real checkpoint, then doctor the embedded config so the
	// snapshot state (which carries fault-engine streams) no longer
	// matches it — the same corruption shape as the root
	// TestCheckpointConfigMismatch.
	cfg := chipletnet.DefaultConfig()
	cfg.Topology = chipletnet.HypercubeTopology(3)
	cfg.InjectionRate = 0.1
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 500
	cfg.Fault.BER = 5e-4
	path := filepath.Join(t.TempDir(), "doctored.ckpt")
	if _, err := chipletnet.Run(context.Background(), cfg, chipletnet.RunControl{CheckpointPath: path, InterruptAtCycle: 200}); !errors.Is(err, chipletnet.ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var embedded chipletnet.Config
	if err := json.Unmarshal(st.Config, &embedded); err != nil {
		t.Fatal(err)
	}
	embedded.Fault = chipletnet.FaultConfig{}
	if st.Config, err = json.Marshal(embedded); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(path, st); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1", "CHIPLETSIM_ARGS=-resume "+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("doctored resume: err = %v, want a non-zero exit", err)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Errorf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "does not match configuration") {
		t.Errorf("stderr lacks the mismatch diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "-resume") {
		t.Errorf("stderr does not point at -resume:\n%s", out)
	}
}

// TestResumeMissingFileExits1: a nonexistent checkpoint path is a plain
// fatal error, not the mismatch diagnostic.
func TestResumeMissingFileExits1(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1", "CHIPLETSIM_ARGS=-resume "+filepath.Join(t.TempDir(), "nope.ckpt"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("missing checkpoint: err = %v (stderr %q), want exit 1", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "does not match configuration") {
		t.Errorf("missing file misreported as a config mismatch:\n%s", stderr.String())
	}
}

// TestTimeoutExits2: -timeout on a run far longer than the budget stops
// it at a cycle boundary, exits 2 and prints the diagnostic snapshot.
func TestTimeoutExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHIPLETSIM_CHILD=1",
		"CHIPLETSIM_ARGS=-topology hypercube -dims 3 -rate 0.1 -warmup 100 -measure 50000000 -timeout 1ms")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("timed-out run: err = %v (stderr %q), want exit 2", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "wall-clock timeout after 1ms") {
		t.Errorf("stderr lacks the timeout message:\n%s", out)
	}
	if !strings.Contains(out, "packets in flight") {
		t.Errorf("stderr lacks the diagnostic report:\n%s", out)
	}
}
