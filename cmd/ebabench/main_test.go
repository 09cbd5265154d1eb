package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/bench"
)

// childEnv makes this test binary behave as ebabench: a full run
// starts its workloads as children of its own executable, which under
// `go test` is the test binary.
const childEnv = "EBABENCH_TEST_AS_MAIN"

// benchDir is shared by the tests so the binaries are built once.
var benchDir string

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	dir, err := os.MkdirTemp("", "ebabench-test")
	if err != nil {
		panic(err)
	}
	benchDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics holds one pass's metrics to the tables: exactly the
// named metrics, each once, each with its unit.
func checkMetrics(t *testing.T, where string, got map[string]bench.Value, want []bench.Metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", where, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok || v.Unit != m.Unit || !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric %q missing, misnamed or in unit %q (want %q)", where, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestQuickRun is the smoke test that keeps the harness from rotting:
// one command runs every workload at toy size against the real
// binaries, every metric BENCHMARK.json names comes out once per
// workload with its unit, every answer verifies, and each traced pass
// leaves a span file.
func TestQuickRun(t *testing.T) {
	t.Setenv(childEnv, "1")
	dir := benchDir
	var out bytes.Buffer
	if err := run([]string{"-quick", "-seed", "2", "-dir", dir}, &out); err != nil {
		t.Fatalf("ebabench -quick: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "out", "ebabench-seed2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != bench.SchemaVersion || rep.Seed != 2 || rep.NProc < 1 || rep.GOMAXPROCS < 1 || rep.GoVersion == "" || rep.TimingMethod == "" {
		t.Errorf("incomplete envelope: %+v", rep.Envelope)
	}
	for _, w := range bench.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil || wr.EndToEnd == nil || wr.Traced == nil {
			t.Fatalf("%s: missing from the report", w.Name)
		}
		for _, res := range []*bench.Result{wr.EndToEnd, wr.Traced} {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
			}
		}
		checkMetrics(t, w.Name+" end-to-end", wr.EndToEnd.Metrics, bench.EndToEnd)
		checkMetrics(t, w.Name+" per-layer", wr.Traced.Metrics, bench.PerLayer)
		for _, m := range bench.WorkloadEndToEnd[w.Name] {
			if v, ok := wr.EndToEnd.Extra[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: workload metric %q missing or in unit %q", w.Name, m.Name, v.Unit)
			}
		}
		if cov := wr.Traced.Metrics["trace.coverage"].Value; cov <= 0 || cov > 1 || (w.Name == bench.ColdVerdict && cov < 0.8) {
			t.Errorf("%s: trace.coverage = %v", w.Name, cov)
		}
		if v, ok := wr.EndToEnd.Extra["failed_share"]; !ok || v.Value != 0 {
			t.Errorf("%s: failed_share = %+v", w.Name, v)
		}
		if strings.Count(out.String(), "== "+w.Name+" ") != 2 {
			t.Errorf("%s: expected one end-to-end and one per-layer section in the report", w.Name)
		}
		if st, err := os.Stat(filepath.Join(dir, "out", "spans-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// TestDriverContract: with -workload the last stdout line is the JSON
// object the driver parses, and a bad invocation is an error.
func TestDriverContract(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "query-churn", "--seed", "3", "--seconds", "1", "--trace", "0", "-quick", "-dir", benchDir}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("last line has keys %v, want correct/attempted/failed/metrics", line)
	}
	var metrics map[string]bench.Value
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "driver line", metrics, bench.EndToEnd)
	if string(line["correct"]) != "true" {
		t.Errorf("correct = %s", line["correct"])
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"stray"}} {
		if err := run(bad, &bytes.Buffer{}); err == nil {
			t.Errorf("ebabench %v succeeded", bad)
		}
	}
}
