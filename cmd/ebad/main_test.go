package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// ebadBin is the daemon built from this directory, once per test run:
// the tests drive the real process — flags, exit codes, signals, HTTP.
var ebadBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ebad-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ebadBin = filepath.Join(dir, "ebad")
	if out, err := exec.Command("go", "build", "-o", ebadBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runEbad runs the binary to completion and returns its stderr and
// exit code. An invocation that should fail at once but starts a
// daemon instead is killed after ten seconds and reported.
func runEbad(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, ebadBin, args...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("ebad %v: still running after 10s, stderr %q", args, errb.String())
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("ebad %v: %v", args, err)
	}
	return errb.String(), cmd.ProcessState.ExitCode()
}

// daemon is one running ebad. Its stderr goes to a file, which the
// test can read while the process still writes to it.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	errPath string
}

func (d *daemon) stderr() string {
	data, _ := os.ReadFile(d.errPath)
	return string(data)
}

// startDaemon starts ebad on a free loopback port the test picked,
// with the extra flags, and waits until /healthz answers 200.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{url: "http://" + addr, errPath: filepath.Join(t.TempDir(), "stderr")}
	errFile, err := os.Create(d.errPath)
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	d.cmd = exec.Command(ebadBin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = errFile
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	if !d.healthy(10 * time.Second) {
		t.Fatalf("ebad %v: /healthz not ok within 10s, stderr %q", args, d.stderr())
	}
	return d
}

// healthy polls /healthz until it answers 200 with status "ok".
func (d *daemon) healthy(within time.Duration) bool {
	for end := time.Now().Add(within); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get(d.url + "/healthz")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"ok"`)) {
			return true
		}
	}
	return false
}

// post sends one JSON body and returns the status, the Retry-After
// header and the response body.
func (d *daemon) post(path, body string) (int, string, []byte, error) {
	resp, err := http.Post(d.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), data, err
}

// TestServeAndDrain: -addr and -cachedir start a daemon that answers
// both query routes, and SIGTERM drains it to exit code 0.
func TestServeAndDrain(t *testing.T) {
	cache := t.TempDir()
	d := startDaemon(t, "-cachedir", cache, "-grace", "5s")
	if want := "cache " + cache; !strings.Contains(d.stderr(), want) {
		t.Fatalf("stderr %q does not name %q", d.stderr(), want)
	}

	const query = `{"formula":"Cbox E0 -> C E0","n":3,"t":1,"mode":"crash"}`
	status, _, body, err := d.post("/v1/query", query)
	if err != nil || status != http.StatusOK {
		t.Fatalf("query: status %d, err %v, body %s", status, err, body)
	}
	var single struct {
		Valid       bool `json:"valid"`
		TotalPoints int  `json:"total_points"`
	}
	if err := json.Unmarshal(body, &single); err != nil || !single.Valid || single.TotalPoints == 0 {
		t.Fatalf("query answer %s (err %v), want valid over a non-empty system", body, err)
	}

	status, _, body, err = d.post("/v1/query/batch",
		`{"queries":[`+query+`,{"formula":"C E0 -> Cbox E0","n":3,"t":1,"mode":"crash"}]}`)
	if err != nil || status != http.StatusOK {
		t.Fatalf("batch: status %d, err %v, body %s", status, err, body)
	}
	var batch struct {
		Results []struct {
			Error    string `json:"error"`
			Response *struct {
				Valid bool `json:"valid"`
			} `json:"response"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Results) != 2 {
		t.Fatalf("batch answer %s (err %v), want 2 results", body, err)
	}
	for i, want := range []bool{true, false} {
		if r := batch.Results[i]; r.Error != "" || r.Response == nil || r.Response.Valid != want {
			t.Fatalf("batch item %d: %s, want an answer with valid=%v", i, body, want)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v, stderr %q", err, d.stderr())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ebad still running 10s after SIGTERM with -grace 5s")
	}
}

// TestUsageErrors: the removed load-generator modes and any positional
// argument are usage errors (exit 2, usage on stderr), not a daemon on
// the default port with the rest of the command line dropped.
func TestUsageErrors(t *testing.T) {
	type usageCase struct {
		name string
		args []string
		want string
	}
	cases := []usageCase{
		{"positional", []string{"load", "http://127.0.0.1:1"}, `unexpected argument "load"; load generation lives in go run ./cmd/ebabench`},
		{"positional after flags", []string{"-addr", "127.0.0.1:0", "serve", "-cachedir", t.TempDir()}, `unexpected argument "serve"`},
	}
	for _, mode := range []string{"load", "overload", "cluster-load"} {
		cases = append(cases, usageCase{mode + " flag", []string{"-" + mode, "http://127.0.0.1:1"}, "flag provided but not defined: -" + mode})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stderr, code := runEbad(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2; stderr %q", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "Usage of") {
				t.Errorf("stderr %q, want %q and the usage", stderr, tc.want)
			}
		})
	}
}

// TestClusterNeedsSelf: a cluster node that does not say which peer it
// is fails with the named error, exit 1.
func TestClusterNeedsSelf(t *testing.T) {
	stderr, code := runEbad(t, "-addr", "127.0.0.1:0", "-peers", "n1=http://127.0.0.1:1,n2=http://127.0.0.1:2")
	if code != 1 || !strings.Contains(stderr, `ebad: cluster: self "" not in peer list`) {
		t.Fatalf("exit %d, stderr %q, want exit 1 and the self-not-in-peers error", code, stderr)
	}
}

// TestOverload drives a tightly capped daemon past its admission
// capacity with cold keys (every request a never-seen omission limit,
// so each admitted one costs an enumeration): excess load is shed with
// 429 + Retry-After or 503, nothing fails, some queries are served, and
// the daemon reports healthy again once the pressure stops.
func TestOverload(t *testing.T) {
	d := startDaemon(t, "-cachedir", t.TempDir(),
		"-max-inflight", "4", "-per-key", "2", "-max-queue", "8", "-queue-timeout", "100ms")

	const clients = 64
	var (
		wg         sync.WaitGroup
		statuses   [clients]int
		retryAfter [clients]string
		errs       [clients]error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"formula":"Cbox E0 -> C E0","n":3,"t":1,"mode":"omission","limit":%d}`, 1_000_000+i)
			statuses[i], retryAfter[i], _, errs[i] = d.post("/v1/query", body)
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i := range statuses {
		switch {
		case errs[i] != nil:
			t.Errorf("request %d: transport failure: %v", i, errs[i])
		case statuses[i] == http.StatusOK:
			ok++
		case statuses[i] == http.StatusTooManyRequests:
			shed++
			if secs, err := strconv.Atoi(retryAfter[i]); err != nil || secs < 1 {
				t.Errorf("request %d: 429 with Retry-After %q, want an integer >= 1", i, retryAfter[i])
			}
		case statuses[i] == http.StatusServiceUnavailable:
		default:
			t.Errorf("request %d: status %d, want 200, 429 or 503", i, statuses[i])
		}
	}
	if ok == 0 || shed == 0 {
		t.Errorf("%d served, %d shed with 429 of %d: want some of each", ok, shed, clients)
	}
	if !d.healthy(15 * time.Second) {
		t.Errorf("/healthz not back to ok within 15s of the burst")
	}
}
