package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/clitest"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// ebacheck runs the command with the arguments and returns what it wrote
// and its exit code.
var ebacheck = clitest.Run

// TestGolden holds the whole verdict — system size line, EBA checks,
// Theorem 5.3 oracle, worst case and dominance matrix — to a committed
// golden for one small key per failure mode, sequentially and at the
// default parallelism. The goldens were written by the binary as it
// stood before the verdict path moved to per-view evaluation.
func TestGolden(t *testing.T) {
	keys := []struct{ mode, n, t, h string }{
		{"crash", "3", "1", "3"},
		{"omission", "3", "1", "3"},
		{"receiving-omission", "3", "1", "2"},
		{"general-omission", "3", "1", "2"},
	}
	for _, k := range keys {
		name := k.mode + "-n" + k.n + "-t" + k.t + "-h" + k.h
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []string{"1", "0"} {
				stdout, stderr, code := ebacheck(t, "-n", k.n, "-t", k.t, "-mode", k.mode, "-h", k.h, "-parallel", par)
				if code != 0 || stderr != "" {
					t.Fatalf("-parallel %s: exit %d, stderr %q", par, code, stderr)
				}
				if stdout != string(want) {
					t.Errorf("-parallel %s: stdout differs from testdata/%s.golden:\n%s", par, name, stdout)
				}
			}
		})
	}
}

// TestMetricsSnapshot: ebacheck switches instrumentation off unless a
// flag reads it, so with -metrics the snapshot must still carry the
// build and evaluator counters, and the verdict must be the golden with
// and without the flag. Interner misses must equal the distinct views
// the verdict reports: hash-consing minted each view exactly once.
func TestMetricsSnapshot(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "omission-n3-t1-h3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-n", "3", "-t", "1", "-mode", "omission", "-h", "3", "-parallel", "1"}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	for _, extra := range [][]string{nil, {"-metrics", metrics}} {
		stdout, stderr, code := ebacheck(t, append(args, extra...)...)
		if code != 0 || stderr != "" || stdout != string(want) {
			t.Fatalf("%v: exit %d, stderr %q, stdout differs from the golden:\n%s", extra, code, stderr, stdout)
		}
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"eba_system_runs_enumerated_total", "eba_knowledge_frontier_builds_total", "eba_knowledge_unions_total"} {
		if snap.CounterSum(name) == 0 {
			t.Errorf("%s is zero in the -metrics snapshot", name)
		}
	}
	var runs, points, distinct int
	if _, err := fmt.Sscanf(strings.Split(string(want), "\n")[1], "  %d runs, %d points, %d distinct views", &runs, &points, &distinct); err != nil {
		t.Fatal(err)
	}
	if misses := snap.CounterValue("eba_views_intern_total", telemetry.L("result", "miss")); misses != float64(distinct) {
		t.Errorf(`eba_views_intern_total{result="miss"} = %v, want the %d distinct views`, misses, distinct)
	}
}

// TestBadFlags: a flag value the command cannot use is a named error
// on stderr and exit code 1, not a verdict, and it is refused before
// anything is built, in under a second. Crash n=12 t=1 h=3 has 73,705
// patterns, inside -limit, but 301,895,680 runs.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown mode", []string{"-mode", "bogus"}, `unknown failure mode "bogus"`},
		{"negative limit", []string{"-mode", "omission", "-limit", "-1"}, "negative pattern limit -1"},
		{"past the run bound", []string{"-n", "12", "-t", "1", "-mode", "crash", "-h", "3"}, "has 73705 patterns × 2^12 configurations, more than 2000000 runs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			stdout, stderr, code := ebacheck(t, tc.args...)
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Errorf("took %v to refuse", elapsed)
			}
			if code != 1 {
				t.Errorf("exit code %d, want 1", code)
			}
			if !strings.HasPrefix(stderr, "ebacheck: ") || !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not name the error %q", stderr, tc.want)
			}
			if strings.Contains(stdout, "protocol") {
				t.Errorf("a verdict was printed despite the error:\n%s", stdout)
			}
		})
	}
}
