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
// ebaqBin is its command-line client, built beside it.
var ebadBin, ebaqBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ebad-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ebadBin, ebaqBin = filepath.Join(dir, "ebad"), filepath.Join(dir, "ebaq")
	for bin, pkg := range map[string]string{ebadBin: ".", ebaqBin: "../ebaq"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
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

// get fetches one path and returns the status and the response body.
func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
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

// TestUsageErrors: the removed load-generator modes, the removed
// cluster flags and any positional argument are usage errors (exit 2,
// usage on stderr), not a daemon on the default port with the rest of
// the command line dropped.
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
	cases = append(cases,
		usageCase{"self flag", []string{"-self", "n1"}, "flag provided but not defined: -self"},
		usageCase{"peers flag", []string{"-peers", "n1=http://127.0.0.1:1"}, "flag provided but not defined: -peers"},
	)
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

// TestDaemonSmoke drives a daemon over a fresh cache directory as a
// first user would: the Section 3.3 query and its converse on the
// default system, which is enumerated exactly once, 25 four-formula
// batches through ebaq -server, and a metrics scrape. A failing run
// logs the /v1/systems and /metrics bodies.
func TestDaemonSmoke(t *testing.T) {
	d := startDaemon(t, "-cachedir", t.TempDir())
	t.Cleanup(func() {
		if t.Failed() {
			for _, path := range []string{"/v1/systems", "/metrics"} {
				status, body, err := d.get(path)
				t.Logf("GET %s: status %d, err %v\n%s", path, status, err, body)
			}
		}
	})

	type answer struct {
		Valid          bool            `json:"valid"`
		Counterexample json.RawMessage `json:"counterexample"`
	}
	query := func(formula string) answer {
		t.Helper()
		status, _, body, err := d.post("/v1/query", `{"formula":"`+formula+`"}`)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%q: status %d, err %v, body %s", formula, status, err, body)
		}
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatalf("%q: %v in %s", formula, err, body)
		}
		return a
	}
	if a := query("Cbox E0 -> C E0"); !a.Valid {
		t.Errorf("Cbox E0 -> C E0 is not valid")
	}
	if a := query("C E0 -> Cbox E0"); a.Valid || a.Counterexample == nil {
		t.Errorf("C E0 -> Cbox E0: valid=%v, counterexample %s; want invalid with a counterexample", a.Valid, a.Counterexample)
	}

	status, body, err := d.get("/v1/systems")
	if err != nil || status != http.StatusOK {
		t.Fatalf("/v1/systems: status %d, err %v", status, err)
	}
	var systems struct {
		Stats struct {
			Enumerations *int `json:"enumerations"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &systems); err != nil || systems.Stats.Enumerations == nil || *systems.Stats.Enumerations != 1 {
		t.Errorf("/v1/systems: err %v, want \"enumerations\": 1", err)
	}

	for i := 0; i < 25; i++ {
		out, err := exec.Command(ebaqBin, "-server", d.url,
			"-f", "Cbox E0 -> C E0", "-f", "C E0 -> Cbox E0", "-f", "K0 E0", "-f", "E E0 -> Cbox E0").CombinedOutput()
		if err != nil {
			t.Fatalf("ebaq -server batch %d: %v\n%s", i+1, err, out)
		}
	}

	status, body, err = d.get("/metrics")
	if err != nil || status != http.StatusOK {
		t.Fatalf("/metrics: status %d, err %v", status, err)
	}
	for _, series := range []string{"eba_service_queries_total", "eba_store_system_requests_total"} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics has no %s", series)
		}
	}
}

// TestOverload drives a tightly capped daemon past its admission
// capacity with cold keys (every request a never-seen horizon, so each
// admitted one costs an enumeration): excess load is shed with
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
			body := fmt.Sprintf(`{"formula":"Cbox E0 -> C E0","n":3,"t":1,"mode":"crash","horizon":%d}`, 1+i)
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

// TestObservabilitySmoke follows one cold query by its trace ID
// through every surface the daemon writes it to: the response header
// and provenance block, /debug/trace/{id} served from the retention
// ring, the -tracefile JSONL sink and the -slowlog. A failing run logs
// the trace file and the slow log, each with its path.
func TestObservabilitySmoke(t *testing.T) {
	dir := t.TempDir()
	traceFile, slowLog := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "slow.jsonl")
	d := startDaemon(t, "-cachedir", filepath.Join(dir, "cache"),
		"-tracefile", traceFile, "-slowlog", slowLog, "-slow-threshold", "1ns")
	t.Cleanup(func() {
		if t.Failed() {
			for _, path := range []string{traceFile, slowLog} {
				data, err := os.ReadFile(path)
				t.Logf("%s (err %v):\n%s", path, err, data)
			}
		}
	})

	const traceID = "obs-smoke-0123456789abcdef"
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/query", strings.NewReader(`{"formula":"C E0 -> Cbox E0"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Eba-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: status %d, err %v, body %s", resp.StatusCode, err, body)
	}
	if got := resp.Header.Get("X-Eba-Trace-Id"); got != traceID {
		t.Errorf("X-Eba-Trace-Id header %q, want %q echoed", got, traceID)
	}
	var answer struct {
		Provenance struct {
			TraceID      string `json:"trace_id"`
			SystemOrigin string `json:"system_origin"`
			Stages       struct {
				LoadMS float64 `json:"load_ms"`
				EvalMS float64 `json:"eval_ms"`
			} `json:"stages"`
		} `json:"provenance"`
		Counterexample *struct {
			Point int `json:"point"`
		} `json:"counterexample"`
	}
	if err := json.Unmarshal(body, &answer); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	p := answer.Provenance
	if p.TraceID != traceID {
		t.Errorf("provenance.trace_id %q, want %q", p.TraceID, traceID)
	}
	if p.Stages.LoadMS <= 0 || p.Stages.EvalMS <= 0 {
		t.Errorf("provenance stages load_ms %v, eval_ms %v: want both > 0", p.Stages.LoadMS, p.Stages.EvalMS)
	}
	if p.SystemOrigin != "enumerated" {
		t.Errorf("provenance.system_origin %q, want enumerated", p.SystemOrigin)
	}
	if answer.Counterexample == nil || answer.Counterexample.Point <= 0 {
		t.Errorf("counterexample %+v, want a point > 0", answer.Counterexample)
	}

	status, body, err := d.get("/debug/trace/" + traceID)
	if err != nil || status != http.StatusOK {
		t.Fatalf("/debug/trace: status %d, err %v, body %s", status, err, body)
	}
	var dump struct {
		TraceID string `json:"trace_id"`
		Events  []struct {
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if dump.TraceID != traceID {
		t.Errorf("/debug/trace trace_id %q, want %q", dump.TraceID, traceID)
	}
	spans := map[string]int{}
	for _, ev := range dump.Events {
		spans[ev.Name]++
	}
	for _, want := range []string{"service.query", "service.queue", "engine.execute", "engine.load", "engine.eval", "engine.scan"} {
		if spans[want] == 0 {
			t.Errorf("/debug/trace has no %s span (have %v)", want, spans)
		}
	}

	// The daemon appends to both files as its handler returns, which
	// races the client's read of a response flushed early; poll.
	quoted := []byte(`"` + traceID + `"`)
	if data := waitForFile(t, traceFile, quoted); !bytes.Contains(data, quoted) {
		t.Errorf("trace file has no event of trace %s", traceID)
	}
	data := waitForFile(t, slowLog, quoted)
	found := false
	for _, line := range bytes.Split(data, []byte("\n")) {
		var rec struct {
			TraceID string `json:"trace_id"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("slow log has no line for trace %s:\n%s", traceID, data)
	}
}

// waitForFile reads path until it contains want or five seconds pass,
// and returns what it read last.
func waitForFile(t *testing.T, path string, want []byte) []byte {
	t.Helper()
	var data []byte
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		data, _ = os.ReadFile(path)
		if bytes.Contains(data, want) {
			break
		}
	}
	return data
}
