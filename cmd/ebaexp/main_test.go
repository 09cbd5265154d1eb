package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// elapsed matches an experiment's wall time on its title line, the
// only part of the output that differs between two runs.
var elapsed = regexp.MustCompile(`(?m) \([0-9]+\.[0-9]{2}s\)$`)

// TestGolden holds the registry-backed experiments' claim × mode ×
// size matrix (one row per claim, mode and size: pass, FAIL or n/a with
// its reason) and the tables of the experiments that drive protocols on
// the round engine — E15 (halting), E19 (multivalued) and, unless
// -short, E12 (sampled distributions at n=7) — to goldens. The E12,
// E15 and E19 goldens were written by the binary as it stood before
// those experiments moved onto sim.Run (E12's title then ended in
// "(live runtime)").
func TestGolden(t *testing.T) {
	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E9", "E10", "E11", "E14", "E15", "E16", "E19", "E20", "E21", "A3"}
	if !testing.Short() {
		ids = append([]string{"E12"}, ids...)
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

// TestUnknownExperiment: an ID the registry lacks is exit 2 with a
// pointer to -list.
func TestUnknownExperiment(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-e", "E99")
	if code != 2 || !strings.Contains(stderr, `unknown experiment "E99"`) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
