package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The subcommand functions print to stdout and return errors; these tests
// exercise flag parsing, parameter validation, and the happy paths.

func discardStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = old
		null.Close()
	})
}

// writeFile drops JSON content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs f and returns everything it printed to stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

const testScenario = `{"name":"t","j":1000,"w":10,"o":10,"util":0.05,"target_eff":0.8,"seed":7}`

func TestCmdRun(t *testing.T) {
	discardStdout(t)
	path := writeFile(t, "scenario.json", testScenario)
	// All three backends on one scenario; a small protocol keeps it fast.
	if err := cmdRun([]string{"-protocol", "5,100", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-backend", "analytic", "-json", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-backend", "csim", path}); err == nil {
		t.Error("unknown backend should error")
	}
	if err := cmdRun([]string{path, "extra"}); err == nil {
		t.Error("extra args should error")
	}
	if err := cmdRun([]string{filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing file should error")
	}
	if err := cmdRun([]string{"-protocol", "20", path}); err == nil {
		t.Error("malformed protocol should error")
	}
	bad := writeFile(t, "bad.json", `{"j": 100, "w": 10, "o": 10, "wiggle": 1}`)
	if err := cmdRun([]string{bad}); err == nil {
		t.Error("unknown scenario field should error")
	}
}

func TestCmdSweep(t *testing.T) {
	discardStdout(t)
	path := writeFile(t, "sweep.json", `{
		"base": {"j": 1000, "w": 10, "o": 10, "seed": 3},
		"util": [0.05, 0.1],
		"task_ratio": [5, 10],
		"backends": ["analytic", "exact"],
		"protocol": {"Batches": 5, "BatchSize": 100, "Level": 0.9}
	}`)
	if err := cmdSweep([]string{"-workers", "2", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{}); err == nil {
		t.Error("missing spec file should error")
	}
	bad := writeFile(t, "bad.json", `{"base": {"j": 1000, "w": 10, "o": 10}, "backends": ["csim"]}`)
	if err := cmdSweep([]string{bad}); err == nil {
		t.Error("unknown backend should error")
	}
	// Every point fails (T = 1000/7 is not integral): the summary must
	// surface that as an error rather than reporting success.
	failing := writeFile(t, "failing.json",
		`{"base": {"j": 1000, "w": 7, "o": 10, "util": 0.05}, "backends": ["exact"]}`)
	if err := cmdSweep([]string{failing}); err == nil {
		t.Error("sweep with failed points should error")
	}
}

// TestCmdSweepFrontierGolden runs the checked-in frontier spec (analytic,
// fixed seed — fully deterministic, including the level-order stream) and
// compares the rendered cell table against the golden file. Regenerate with:
//
//	go run ./cmd/feasim sweep -frontier cmd/feasim/testdata/sweep_frontier.json \
//	    > cmd/feasim/testdata/sweep_frontier.golden
func TestCmdSweepFrontierGolden(t *testing.T) {
	in := filepath.Join("testdata", "sweep_frontier.json")
	out := captureStdout(t, func() error { return cmdSweep([]string{"-frontier", in}) })
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_frontier.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("frontier golden mismatch:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestCmdSweepFrontier(t *testing.T) {
	discardStdout(t)
	in := filepath.Join("testdata", "sweep_frontier.json")
	if err := cmdSweep([]string{"-frontier", "-json", "-workers", "2", in}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-frontier"}); err == nil {
		t.Error("missing spec file should error")
	}
	// A grid sweep spec is not a frontier spec: the axis declarations are
	// missing, and the loader must say so instead of running a degenerate
	// search.
	grid := writeFile(t, "grid.json", `{"base": {"j": 1000, "w": 10, "o": 10}, "util": [0.05]}`)
	if err := cmdSweep([]string{"-frontier", grid}); err == nil {
		t.Error("grid spec under -frontier should error")
	}
	// The explicit-station/task_ratio rejection reaches the CLI too.
	explicit := writeFile(t, "explicit.json", `{
		"base": {"kind": "report", "scenario": {
			"stations": [{"owner_think": "exp:90", "owner_demand": "det:10"}],
			"task_demand": "det:100", "target_eff": 0.8}},
		"x": {"axis": "util", "min": 0.05, "max": 0.2},
		"y": {"axis": "task_ratio", "min": 5, "max": 20}}`)
	err := cmdSweep([]string{"-frontier", explicit})
	if err == nil || !strings.Contains(err.Error(), "explicit-station") {
		t.Errorf("explicit-station ratio axis should be rejected loudly, got %v", err)
	}
}

// TestCmdQueryGoldens answers every query kind's checked-in envelope with
// the (deterministic) analytic backend and compares the rendered text
// against the golden files. Regenerate with:
//
//	go run ./cmd/feasim query cmd/feasim/testdata/query_<kind>.json \
//	    > cmd/feasim/testdata/query_<kind>.golden
func TestCmdQueryGoldens(t *testing.T) {
	// "fleet" and "fleet_threshold" are heterogeneous spellings of the
	// report and threshold kinds: per-station availability/speed instead of
	// the aggregate util.
	for _, kind := range []string{"report", "threshold", "partition", "distribution", "scaled", "timeline", "fleet", "fleet_threshold"} {
		t.Run(kind, func(t *testing.T) {
			in := filepath.Join("testdata", "query_"+kind+".json")
			out := captureStdout(t, func() error { return cmdQuery([]string{in}) })
			want, err := os.ReadFile(filepath.Join("testdata", "query_"+kind+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s--- want ---\n%s", kind, out, want)
			}
		})
	}
}

func TestCmdQuery(t *testing.T) {
	discardStdout(t)
	// The exact backend answers thresholds empirically by bisection; a small
	// protocol keeps it fast.
	path := filepath.Join("testdata", "query_threshold.json")
	if err := cmdQuery([]string{"-backend", "exact", "-protocol", "5,100", path}); err != nil {
		t.Fatal(err)
	}
	// JSON emission on the analytic backend.
	if err := cmdQuery([]string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	// -backend all must skip incapable backends, not fail: scaled is
	// analytic-only.
	scaled := filepath.Join("testdata", "query_scaled.json")
	if err := cmdQuery([]string{"-backend", "all", scaled}); err != nil {
		t.Fatal(err)
	}
	// A single incapable backend is an error.
	if err := cmdQuery([]string{"-backend", "des", scaled}); err == nil {
		t.Error("des backend on a scaled query should error")
	}
	if err := cmdQuery([]string{"-backend", "csim", path}); err == nil {
		t.Error("unknown backend should error")
	}
	if err := cmdQuery([]string{}); err == nil {
		t.Error("missing envelope file should error")
	}
	// Unknown kind and unknown fields must fail loudly.
	badKind := writeFile(t, "badkind.json", `{"kind": "optimise", "w": 10}`)
	if err := cmdQuery([]string{badKind}); err == nil {
		t.Error("unknown query kind should error")
	}
	badField := writeFile(t, "badfield.json", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8, "wiggle": 1}`)
	if err := cmdQuery([]string{badField}); err == nil {
		t.Error("unknown envelope field should error")
	}
	noKind := writeFile(t, "nokind.json", `{"w": 10, "o": 10}`)
	if err := cmdQuery([]string{noKind}); err == nil {
		t.Error("missing kind should error")
	}
}

// TestCmdQueryUnreachableTarget: `feasim query -json` on a report whose
// target no task ratio reaches prints feasible: false without a
// prescription, for a homogeneous scenario and a fleet.
func TestCmdQueryUnreachableTarget(t *testing.T) {
	for _, env := range []string{
		`{"kind":"report","scenario":{"j":1000,"w":10,"o":10,"util":0.5,"target_eff":1}}`,
		`{"kind":"report","scenario":{"j":6450,"o":10,"target_eff":0.8,"stations":[{"p":0.0408,"count":4},{"util":0.0215,"count":9},{"p":0.015,"speed":2,"count":2}]}}`,
	} {
		path := writeFile(t, "unreachable.json", env)
		out := captureStdout(t, func() error { return cmdQuery([]string{"-json", path}) })
		if !strings.Contains(out, `"feasible": false`) {
			t.Errorf("%s: want a not-feasible verdict, got:\n%s", env, out)
		}
		if strings.Contains(out, "min_ratio") || strings.Contains(out, "min_job_demand") {
			t.Errorf("%s: an unreachable target must carry no prescription, got:\n%s", env, out)
		}
	}
}

// TestCmdQueryBatchGolden answers the checked-in envelope array with the
// deterministic analytic backend and compares the rendered text against the
// golden file. Regenerate with:
//
//	go run ./cmd/feasim query -batch cmd/feasim/testdata/query_batch.json \
//	    > cmd/feasim/testdata/query_batch.golden
func TestCmdQueryBatchGolden(t *testing.T) {
	in := filepath.Join("testdata", "query_batch.json")
	out := captureStdout(t, func() error { return cmdQuery([]string{"-batch", in}) })
	want, err := os.ReadFile(filepath.Join("testdata", "query_batch.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("batch golden mismatch:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestCmdQueryBatch(t *testing.T) {
	discardStdout(t)
	// Partial failure: the malformed middle item fails alone; the command
	// still succeeds because its neighbors answered.
	mixed := writeFile(t, "mixed.json", `[
		{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8},
		{"kind": "bogus"},
		{"kind": "scaled", "t": 100, "o": 10, "util": 0.1, "ws": [1, 10]}
	]`)
	if err := cmdQuery([]string{"-batch", mixed}); err != nil {
		t.Errorf("partially failing batch should still succeed: %v", err)
	}
	// JSON emission.
	if err := cmdQuery([]string{"-batch", "-json", mixed}); err != nil {
		t.Fatal(err)
	}
	// All items failing is a command failure.
	allBad := writeFile(t, "allbad.json", `[{"kind": "bogus"}, {"kind": "worse"}]`)
	if err := cmdQuery([]string{"-batch", allBad}); err == nil {
		t.Error("batch with every item failing should error")
	}
	// The array shell must validate.
	notArray := writeFile(t, "notarray.json", `{"kind": "threshold", "w": 10, "o": 10, "util": 0.1, "target_eff": 0.8}`)
	if err := cmdQuery([]string{"-batch", notArray}); err == nil {
		t.Error("-batch on a non-array file should error")
	}
	empty := writeFile(t, "empty.json", `[]`)
	if err := cmdQuery([]string{"-batch", empty}); err == nil {
		t.Error("empty batch should error")
	}
	if err := cmdQuery([]string{"-batch", "-backend", "all", mixed}); err == nil {
		t.Error("-batch with -backend all should error")
	}
}

func TestCmdRunWarmupFlag(t *testing.T) {
	discardStdout(t)
	path := writeFile(t, "scenario.json", testScenario)
	if err := cmdRun([]string{"-backend", "des", "-warmup", "5", "-protocol", "5,100", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdAnalyze(t *testing.T) {
	discardStdout(t)
	if err := cmdAnalyze([]string{"-j", "1000", "-w", "100", "-o", "10", "-util", "0.01"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-util", "1.5"}); err == nil {
		t.Error("bad utilization should error")
	}
}

func TestCmdAssess(t *testing.T) {
	discardStdout(t)
	if err := cmdAssess([]string{"-j", "600", "-w", "60", "-util", "0.2", "-target", "0.8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAssess([]string{"-j", "60000", "-w", "60", "-util", "0.05"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdThreshold(t *testing.T) {
	discardStdout(t)
	if err := cmdThreshold([]string{"-w", "60", "-utils", "0.05,0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdThreshold([]string{"-utils", "abc"}); err == nil {
		t.Error("malformed utils should error")
	}
	if err := cmdThreshold([]string{"-utils", "1.5"}); err == nil {
		t.Error("out-of-range utilization should error")
	}
}

func TestCmdScaled(t *testing.T) {
	discardStdout(t)
	if err := cmdScaled([]string{"-t", "100", "-util", "0.1", "-maxw", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdScaled([]string{"-util", "1.0"}); err == nil {
		t.Error("bad utilization should error")
	}
}

func TestCmdSimulate(t *testing.T) {
	discardStdout(t)
	// Small protocol keeps the test fast; W=50 gives integral T.
	if err := cmdSimulate([]string{"-j", "1000", "-w", "50", "-util", "0.1",
		"-batches", "5", "-batchsize", "100"}); err != nil {
		t.Fatal(err)
	}
	// Non-integral T must be rejected by the exact simulator.
	if err := cmdSimulate([]string{"-j", "1000", "-w", "3", "-util", "0.1",
		"-batches", "5", "-batchsize", "50"}); err == nil {
		t.Error("non-integral T should error")
	}
}

func TestCmdBenchDiff(t *testing.T) {
	oldRep := writeFile(t, "old.json", `{"schema": "feasim-bench/1", "benchmarks": [
		{"name": "a", "ns_per_op": 100},
		{"name": "b", "ns_per_op": 100},
		{"name": "gone", "ns_per_op": 5}
	]}`)
	newRep := writeFile(t, "new.json", `{"schema": "feasim-bench/1", "benchmarks": [
		{"name": "a", "ns_per_op": 150},
		{"name": "b", "ns_per_op": 90},
		{"name": "fresh", "ns_per_op": 7}
	]}`)
	out := captureStdout(t, func() error { return cmdBenchDiff([]string{oldRep, newRep}) })
	for _, want := range []string{"REGRESSION", "+50.0%", "-10.0%", "| fresh | — |", "| gone |", "1 benchmark(s) regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("benchdiff output missing %q:\n%s", want, out)
		}
	}
	// A looser threshold clears the regression.
	out = captureStdout(t, func() error { return cmdBenchDiff([]string{"-threshold", "0.6", oldRep, newRep}) })
	if strings.Contains(out, "REGRESSION") {
		t.Errorf("threshold 0.6 should clear the +50%% delta:\n%s", out)
	}
	if err := cmdBenchDiff([]string{oldRep}); err == nil {
		t.Error("one file should error")
	}
	if err := cmdBenchDiff([]string{oldRep, filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing file should error")
	}
}

func TestCmdBenchRejectsArgs(t *testing.T) {
	// The full bench run takes ~10s of wall clock; tests only cover the
	// argument validation path.
	if err := cmdBench([]string{"stray"}); err == nil {
		t.Error("stray positional argument should error")
	}
}
