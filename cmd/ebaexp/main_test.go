package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/clitest"
	"github.com/eventual-agreement/eba/internal/exp"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// elapsed matches an experiment's wall time on its title line, the
// only part of the output that differs between two runs.
var elapsed = regexp.MustCompile(`(?m) \([0-9]+\.[0-9]{2}s\)$`)

// slow names the experiments TestGolden skips under -short: E7 and E13
// enumerate omission systems with hundreds of thousands of runs, and
// E12 samples runs at n=7.
var slow = map[string]bool{"E7": true, "E12": true, "E13": true}

// TestGolden holds every experiment's output to its golden: the
// registry-backed experiments' claim × mode × size matrix (one row per
// claim, mode and size: pass, FAIL or n/a with its reason) and the
// tables of the reporters. Every reporter is deterministic (sampled
// ones use fixed seeds), so only the elapsed times are masked.
func TestGolden(t *testing.T) {
	var ids []string
	for _, e := range exp.All() {
		if !testing.Short() || !slow[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	var want strings.Builder
	for _, id := range ids {
		golden, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(golden)
	}
	stdout, stderr, code := clitest.Run(t, "-e", strings.Join(ids, ","))
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if got := elapsed.ReplaceAllString(stdout, " (#s)"); got != want.String() {
		t.Errorf("stdout differs from the goldens:\n%s", got)
	}
}

// TestGoldenSetMatchesList: the goldens under testdata are exactly the
// experiments -list prints, so no experiment ships without a golden and
// no golden outlives its experiment.
func TestGoldenSetMatchesList(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-list")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var goldens []string
	for _, f := range files {
		goldens = append(goldens, strings.TrimSuffix(filepath.Base(f), ".golden"))
	}
	slices.Sort(listed)
	slices.Sort(goldens)
	if !slices.Equal(listed, goldens) {
		t.Errorf("-list prints %v, testdata holds goldens for %v", listed, goldens)
	}
}

// TestUnknownExperiment: an ID the registry lacks is exit 2 with a
// pointer to -list.
func TestUnknownExperiment(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-e", "E99")
	if code != 2 || !strings.Contains(stderr, `unknown experiment "E99"`) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
