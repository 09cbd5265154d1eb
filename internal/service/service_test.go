package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
)

func newTestServer(t *testing.T, timeout time.Duration) (*httptest.Server, *Engine) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, timeout)
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func postQuery(t *testing.T, ts *httptest.Server, req Request) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestQueryPaperTheorems checks the service against the paper's
// Section 3.3 facts: C□ E0 implies C E0 everywhere, and the converse
// fails with a concrete counterexample.
func TestQueryPaperTheorems(t *testing.T) {
	ts, _ := newTestServer(t, 0)

	resp, data := postQuery(t, ts, Request{Formula: "Cbox E0 -> C E0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out Response
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Valid || out.TruePoints != out.TotalPoints || out.Counterexample != nil {
		t.Fatalf("Cbox E0 -> C E0 must be valid, got %+v", out)
	}
	if out.System.Mode != "crash" || out.System.N != 3 || out.System.T != 1 || out.System.Horizon != 3 {
		t.Fatalf("defaults not applied: %+v", out.System)
	}
	if out.System.Origin != "enumerated" {
		t.Fatalf("first query system origin %q, want enumerated", out.System.Origin)
	}

	resp, data = postQuery(t, ts, Request{Formula: "C E0 -> Cbox E0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out = Response{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Valid || out.Counterexample == nil {
		t.Fatalf("C E0 -> Cbox E0 must fail with a counterexample, got %+v", out)
	}
	if out.System.Origin != "memory" {
		t.Fatalf("second query system origin %q, want memory", out.System.Origin)
	}

	// Spacing variants share one cached truth table.
	resp, data = postQuery(t, ts, Request{Formula: "Cbox E0->C E0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out = Response{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ResultOrigin != "memory" {
		t.Fatalf("respaced formula result origin %q, want memory", out.ResultOrigin)
	}
}

func TestQueryBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	for _, tc := range []struct {
		name string
		body string
	}{
		{"empty formula", `{}`},
		{"parse error", `{"formula":"Cbox E0 ->"}`},
		{"unknown mode", `{"formula":"E0","mode":"byzantine"}`},
		{"unknown field", `{"formula":"E0","procs":9}`},
		{"invalid params", `{"formula":"E0","n":2,"t":2}`},
		{"not json", `Cbox E0`},
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not a JSON error envelope", tc.name, data)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
}

// TestOutOfRangeProcessorIsBadRequest: a formula naming a processor the
// system lacks is the request's error — 400 alone and as a batch item —
// and the server goes on answering.
func TestOutOfRangeProcessorIsBadRequest(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	for _, formula := range []string{"K7 E0", "B7 E0", "knows9=1", "nf3", "init3=1", "E0 & K0 K3 E1"} {
		resp, data := postQuery(t, ts, Request{Formula: formula, N: 3})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "names processor") {
			t.Errorf("%q: status %d (%s), want 400 naming the processor", formula, resp.StatusCode, data)
		}
	}
	resp, data := postQuery(t, ts, Request{Formula: "K2 E0 -> E0", N: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid query after the bad ones: status %d (%s)", resp.StatusCode, data)
	}
	resp, data = postBatch(t, ts, BatchRequest{Queries: []Request{
		{Formula: "E0", N: 3},
		{Formula: "K7 E0", N: 3},
	}})
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, %v (%s)", resp.StatusCode, err, data)
	}
	if out.Results[0].Error != "" || out.Results[1].Status != http.StatusBadRequest {
		t.Fatalf("batch items: %+v", out.Results)
	}
}

func TestQueryTimeout(t *testing.T) {
	ts, _ := newTestServer(t, time.Nanosecond)
	// A fresh omission system cannot be enumerated in a nanosecond.
	resp, data := postQuery(t, ts, Request{Formula: "E0", Mode: "omission"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
}

func TestSystemsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	postQuery(t, ts, Request{Formula: "Cbox E0 -> C E0"})
	postQuery(t, ts, Request{Formula: "C E0 -> Cbox E0"})

	resp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Memory    []store.SystemInfo `json:"memory"`
		Snapshots []string           `json:"snapshots"`
		Stats     store.Stats        `json:"stats"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if len(body.Memory) != 1 {
		t.Fatalf("inventory %v, want 1 system", body.Memory)
	}
	info := body.Memory[0]
	if info.Slug != "crash-n3-t1-h3" || info.Results != 2 || info.Digest == "" {
		t.Fatalf("inventory row %+v", info)
	}
	if len(body.Snapshots) != 1 {
		t.Fatalf("snapshots %v, want the one persisted system", body.Snapshots)
	}
	if body.Stats.Enumerations != 1 || body.Stats.ResultComputes != 2 {
		t.Fatalf("stats %+v", body.Stats)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	postQuery(t, ts, Request{Formula: "E0"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"eba_service_queries_total",
		"eba_store_system_requests_total",
		"eba_knowledge_eval_total",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestConcurrentQueries exercises the whole stack from many clients
// at once (run under -race): one shared system, several formulas,
// every response internally consistent.
func TestConcurrentQueries(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	formulas := []struct {
		src   string
		valid bool
	}{
		{"Cbox E0 -> C E0", true},
		{"C E0 -> Cbox E0", false},
		{"K0 E0 -> B0 E0", true},
		{"knows1=0 -> K1 E0", true},
		{"alw E0 -> Cbox E0", false},
	}
	const perFormula = 6
	var wg sync.WaitGroup
	for _, f := range formulas {
		for i := 0; i < perFormula; i++ {
			wg.Add(1)
			go func(src string, valid bool) {
				defer wg.Done()
				body, _ := json.Marshal(Request{Formula: src})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d (%s)", src, resp.StatusCode, data)
					return
				}
				var out Response
				if err := json.Unmarshal(data, &out); err != nil {
					t.Error(err)
					return
				}
				if out.Valid != valid {
					t.Errorf("%s: valid=%v, want %v", src, out.Valid, valid)
				}
			}(f.src, f.valid)
		}
	}
	wg.Wait()
}

func TestGracefulShutdown(t *testing.T) {
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(st, 0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}
