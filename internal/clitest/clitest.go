// Package clitest runs a command's tests against the command itself:
// the test binary re-executes itself as the command, so flag parsing,
// stdout, stderr and exit code are exercised without a separate build.
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// childEnv marks the re-executed test binary as the command.
const childEnv = "EBA_CLITEST_AS_MAIN"

// Main is the command test's TestMain: the re-executed child runs the
// command's main, the parent runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// Run runs the command with the arguments and returns what it wrote
// and its exit code.
func Run(t testing.TB, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

var update = flag.Bool("update", false, "rewrite the goldens Golden compares against")

// Golden runs the command with the arguments, requires exit 0 and
// nothing on stderr, and compares stdout with the golden file; with
// -update it writes stdout to the file instead.
func Golden(t testing.TB, golden string, args ...string) {
	t.Helper()
	stdout, stderr, code := Run(t, args...)
	if code != 0 || stderr != "" {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("%v: stdout differs from %s:\n%s", args, golden, stdout)
	}
}
