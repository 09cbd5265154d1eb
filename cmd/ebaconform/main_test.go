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

// TestPass: a clean run exits 0 and prints one PASS summary line.
func TestPass(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-seed", "1", "-count", "2", "-q", "-corpus", "")
	summary := regexp.MustCompile(`^PASS: 2 scenarios \(0 skipped\), \d+ system keys, \d+ checks, 0 violations in \S+\n$`)
	if code != 0 || !summary.MatchString(stdout) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestMutantsFail: the law and oracle mutants each add a false registry
// claim; the run exits 1, names a violation with its replay command,
// and still writes its -metrics snapshot.
func TestMutantsFail(t *testing.T) {
	for _, mutant := range []string{"law", "oracle"} {
		prom := filepath.Join(t.TempDir(), "m.prom")
		stdout, stderr, code := clitest.Run(t, "-seed", "1", "-count", "2", "-q", "-corpus", "", "-mutant", mutant, "-metrics", prom)
		if code != 1 || !strings.HasPrefix(stdout, "FAIL: ") || !strings.Contains(stdout, "claim/mutant/") ||
			!strings.Contains(stdout, "replay: ebaconform -seed ") {
			t.Errorf("-mutant %s: exit %d, stdout %q, stderr %q", mutant, code, stdout, stderr)
		}
		if data, err := os.ReadFile(prom); err != nil || !strings.Contains(string(data), "# TYPE eba_") {
			t.Errorf("-mutant %s: failing run's -metrics snapshot: %v, %d bytes", mutant, err, len(data))
		}
	}
}

// TestBadFlags: an unknown mode or mutant is exit 2 with the error named.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"-mode", `unknown failure mode "bogus"`},
		{"-mutant", `unknown mutant "bogus"`},
	} {
		stdout, stderr, code := clitest.Run(t, "-count", "1", "-q", "-corpus", "", tc.flag, "bogus")
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%s bogus: exit %d, stdout %q, stderr %q", tc.flag, code, stdout, stderr)
		}
	}
}
