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

// ebaq runs the command with the arguments and returns what it wrote
// and its exit code.
var ebaq = clitest.Run

// millis matches the stage timings of the latency line, the only part
// of the output that differs between two runs of one query.
var millis = regexp.MustCompile(`[0-9]+\.[0-9]{3}`)

// TestGolden holds the whole report — system size, true-point counts,
// origins, fixed-point iterations, verdicts and counterexamples — of
// three formulas per failure mode to a committed golden (timings
// masked). -parallel sets the evaluator's workers and nothing else:
// the report at 2 workers is the golden with the worker count
// changed, and the first query of each process always enumerates.
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
			golden, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []string{"1", "2"} {
				stdout, stderr, code := ebaq(t, "-n", k.n, "-t", k.t, "-mode", k.mode, "-h", k.h, "-parallel", par,
					"-f", "Cbox E0 -> C E0", "-f", "C E0 -> Cbox E0", "-f", "Cdia E0 -> E0")
				if code != 0 || stderr != "" {
					t.Fatalf("-parallel %s: exit %d, stderr %q", par, code, stderr)
				}
				want := strings.ReplaceAll(string(golden), "1 workers", par+" workers")
				if got := millis.ReplaceAllString(stdout, "#"); got != want {
					t.Errorf("-parallel %s: stdout differs from testdata/%s.golden:\n%s", par, name, got)
				}
			}
		})
	}
}

// TestCacheDir: a second process over the same -cachedir restores the
// snapshot the first one wrote and reports the same counts.
func TestCacheDir(t *testing.T) {
	args := []string{"-cachedir", t.TempDir(), "-mode", "omission", "-f", "C E0 -> Cbox E0"}
	cold, stderr, code := ebaq(t, args...)
	if code != 0 || !strings.Contains(cold, "points; enumerated)") {
		t.Fatalf("cold run: exit %d, stderr %q, stdout:\n%s", code, stderr, cold)
	}
	warm, stderr, code := ebaq(t, args...)
	if code != 0 || !strings.Contains(warm, "points; disk)") {
		t.Fatalf("warm run: exit %d, stderr %q, stdout:\n%s", code, stderr, warm)
	}
	line := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	for _, prefix := range []string{"true at:", "verdict:", "fails at:"} {
		if c, w := line(cold, prefix), line(warm, prefix); c == "" || c != w {
			t.Errorf("%q line: cold %q, warm %q", prefix, c, w)
		}
	}
}

// TestBadFlags: a request the command cannot evaluate is a named error
// on stderr and exit code 1, not a report.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no formula", nil, "missing -f formula"},
		{"unparsable formula", []string{"-f", "K0 ("}, "unexpected end of formula"},
		{"unknown mode", []string{"-mode", "bogus", "-f", "E0"}, `unknown failure mode "bogus"`},
		{"bad trace id", []string{"-server", "http://127.0.0.1:0", "-trace-id", "a b", "-f", "E0"}, "bad -trace-id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := ebaq(t, tc.args...)
			if code != 1 {
				t.Errorf("exit code %d, want 1", code)
			}
			if !strings.HasPrefix(stderr, "ebaq: ") || !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not name the error %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("a report was printed despite the error:\n%s", stdout)
			}
		})
	}
}
