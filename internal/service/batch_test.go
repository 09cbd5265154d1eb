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
	"sync/atomic"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
)

func postBatch(t *testing.T, ts *httptest.Server, breq BatchRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
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

// TestBatchPreservesOrderAndProvenance: results line up with queries
// and each carries its own provenance block.
func TestBatchPreservesOrderAndProvenance(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	breq := BatchRequest{Queries: []Request{
		{Formula: "Cbox E0 -> C E0"},
		{Formula: "E0", Horizon: 4},
		{Formula: "C E0 -> Cbox E0"},
	}}
	resp, data := postBatch(t, ts, breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results", len(out.Results))
	}
	for i, item := range out.Results {
		if item.Error != "" {
			t.Fatalf("item %d: %s", i, item.Error)
		}
		if item.Response.Formula != breq.Queries[i].Formula {
			t.Fatalf("item %d answers %q, want %q", i, item.Response.Formula, breq.Queries[i].Formula)
		}
		if item.Response.Provenance == nil || item.Response.Provenance.Key == "" {
			t.Fatalf("item %d missing provenance: %+v", i, item.Response)
		}
	}
	// Theorem results survive batching: item 0 valid, item 2 not.
	if !out.Results[0].Response.Valid || out.Results[2].Response.Valid {
		t.Fatalf("batch verdicts wrong: %v / %v",
			out.Results[0].Response.Valid, out.Results[2].Response.Valid)
	}
}

// TestBatchIsolatesItemFailures: one bad query costs its own slot,
// not the batch.
func TestBatchIsolatesItemFailures(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	resp, data := postBatch(t, ts, BatchRequest{Queries: []Request{
		{Formula: "E0"},
		{Formula: "((("},
		{Formula: "E1"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error != "" || out.Results[2].Error != "" {
		t.Fatalf("good items failed: %+v", out.Results)
	}
	if out.Results[1].Error == "" || out.Results[1].Status != http.StatusBadRequest {
		t.Fatalf("bad item not isolated: %+v", out.Results[1])
	}
	if out.Results[1].Response != nil {
		t.Fatal("failed item must not carry a response")
	}
}

// TestBatchRejectsShapes: empty and oversized batches are refused
// whole.
func TestBatchRejectsShapes(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	if resp, _ := postBatch(t, ts, BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	big := BatchRequest{Queries: make([]Request, MaxBatchItems+1)}
	for i := range big.Queries {
		big.Queries[i] = Request{Formula: "E0"}
	}
	if resp, data := postBatch(t, ts, big); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(data), "batch too large") {
		t.Fatalf("oversized batch accepted: status %d %s", resp.StatusCode, data)
	}
}

// TestBatchUnderAdmissionCaps: items pass the same gate as standalone
// queries — an expensive-key cap of 1 still lets a batch through (the
// per-key singleflight and queue absorb it) while keeping the global
// invariants, and shed items report 429 with the rest intact.
func TestBatchUnderAdmissionCaps(t *testing.T) {
	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(st, 0))
	srv.SetAdmission(AdmissionConfig{
		MaxInflight: 2, PerKey: 1, MaxQueue: 64, QueueTimeout: 5 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var reqs []Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, Request{Formula: "E0", Horizon: 3})
	}
	resp, data := postBatch(t, ts, BatchRequest{Queries: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Results {
		if item.Error != "" && item.Status != http.StatusTooManyRequests {
			t.Fatalf("item %d failed outside admission: %+v", i, item)
		}
	}
}

// TestBatchExecuteSyncMatchesExecute: the synchronous engine path
// (used by batch items) and the standard path agree.
func TestBatchExecuteSyncMatchesExecute(t *testing.T) {
	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, 0)
	req := Request{Formula: "Cbox E0 -> C E0"}
	a, err := eng.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.ExecuteSync(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Valid != b.Valid || a.TruePoints != b.TruePoints || a.TotalPoints != b.TotalPoints {
		t.Fatalf("paths disagree: %+v vs %+v", a, b)
	}
}

// TestClientConnectionReuseAcrossRetries: the tuned transport must
// carry a retried request over the socket that served the failed
// attempt — retries reusing cold dials would multiply connection
// churn exactly when the daemon is shedding.
func TestClientConnectionReuseAcrossRetries(t *testing.T) {
	var conns, calls atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain for keep-alive
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"shed"}`)) //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"formula":"E0","valid":true,"total_points":1,"true_points":1}`)) //nolint:errcheck
	})
	ts := httptest.NewUnstartedServer(inner)
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := NewClient(ts.URL)
	c.BaseBackoff = time.Millisecond
	c.AttemptTimeout = 5 * time.Second
	if _, err := c.Query(context.Background(), Request{Formula: "E0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("3 attempts used %d connections, want 1 (no reuse)", got)
	}
	if c.Retries() != 2 || c.Sheds() != 2 {
		t.Fatalf("counters: retries=%d sheds=%d", c.Retries(), c.Sheds())
	}
}

// TestClientAttemptTimeout: a hung attempt is cut at AttemptTimeout
// and retried, instead of consuming the whole budget.
func TestClientAttemptTimeout(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(2 * time.Second) // first attempt hangs
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"formula":"E0","valid":true}`)) //nolint:errcheck
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.AttemptTimeout = 100 * time.Millisecond
	c.BaseBackoff = time.Millisecond
	start := time.Now()
	if _, err := c.Query(context.Background(), Request{Formula: "E0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("hung attempt not cut: took %v", elapsed)
	}
	if calls.Load() < 2 {
		t.Fatal("no retry after attempt timeout")
	}
}

// TestClientQueryBatch: the batch client round-trips against a live
// server and surfaces the result count invariant.
func TestClientQueryBatch(t *testing.T) {
	ts, _ := newTestServer(t, 0)
	c := NewClient(ts.URL)
	out, err := c.QueryBatch(context.Background(), []Request{
		{Formula: "E0"}, {Formula: "Cbox E0 -> C E0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Error != "" || !out.Results[1].Response.Valid {
		t.Fatalf("batch: %+v", out)
	}
}
