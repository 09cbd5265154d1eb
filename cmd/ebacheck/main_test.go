package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childEnv makes this test binary behave as ebacheck, so the tests run
// the command itself — flag parsing, stdout, stderr and exit code —
// without a separate build.
const childEnv = "EBACHECK_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// ebacheck runs the command with the arguments and returns what it
// wrote and its exit code.
func ebacheck(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("ebacheck %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

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

// TestBadFlags: a flag value the command cannot use is a named error
// on stderr and exit code 1, not a verdict.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown mode", []string{"-mode", "bogus"}, `unknown failure mode "bogus"`},
		{"negative limit", []string{"-mode", "omission", "-limit", "-1"}, "negative pattern limit -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := ebacheck(t, tc.args...)
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
