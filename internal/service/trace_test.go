package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// lockedBuf is a concurrency-safe bytes.Buffer for the trace writer.
type lockedBuf struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newLockedBuf() *lockedBuf {
	b := &lockedBuf{mu: make(chan struct{}, 1)}
	b.mu <- struct{}{}
	return b
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.Write(p)
}

func (b *lockedBuf) Bytes() []byte {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestTraceEndToEnd is the PR's acceptance walk: a cold query fired
// with a fixed X-Eba-Trace-Id must be reconstructable from the trace
// ID alone — the ID comes back in the response header and provenance
// block, /debug/trace/{id} returns the span tree, and the JSONL sink
// holds the same events.
func TestTraceEndToEnd(t *testing.T) {
	buf := newLockedBuf()
	telemetry.SetTraceWriter(buf)
	telemetry.SetRing(4096)
	defer telemetry.SetTraceWriter(nil)
	defer telemetry.SetRing(0)

	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(st, 0))
	ts := httptest.NewServer(wireChecked(t, srv.Handler()))
	defer ts.Close()

	const traceID = "e2e-trace-0001"
	body, _ := json.Marshal(Request{Formula: "C E0 -> Cbox E0"})
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Eba-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Eba-Trace-Id"); got != traceID {
		t.Fatalf("response header trace ID %q, want %q", got, traceID)
	}

	var out Response
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	p := out.Provenance
	if p == nil {
		t.Fatal("response has no provenance block")
	}
	if p.TraceID != traceID {
		t.Fatalf("provenance trace ID %q, want %q", p.TraceID, traceID)
	}
	if p.SystemOrigin != "enumerated" || p.ResultOrigin != "enumerated" {
		t.Fatalf("cold query origins %q/%q, want enumerated", p.SystemOrigin, p.ResultOrigin)
	}
	if p.Stages.LoadMS <= 0 || p.Stages.EvalMS <= 0 {
		t.Fatalf("cold query stages not measured: %+v", p.Stages)
	}
	if p.Eval == nil {
		t.Fatal("cold query provenance has no eval stats")
	}
	if p.Parallelism < 1 {
		t.Fatalf("parallelism %d", p.Parallelism)
	}
	if out.Counterexample == nil || out.Counterexample.Point <= 0 {
		t.Fatalf("counterexample point provenance missing: %+v", out.Counterexample)
	}
	sum := p.Stages.QueueMS + p.Stages.LoadMS + p.Stages.EvalMS + p.Stages.ScanMS
	if sum > out.ElapsedMS {
		t.Fatalf("stage sum %.3fms exceeds elapsed %.3fms", sum, out.ElapsedMS)
	}

	// /debug/trace/{id} serves the retained events for the trace, with
	// the expected span names present and every span in this trace.
	dresp, err := http.Get(ts.URL + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	ddata, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d: %s", dresp.StatusCode, ddata)
	}
	var dump struct {
		TraceID string            `json:"trace_id"`
		Events  []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal(ddata, &dump); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range dump.Events {
		if ev.Trace != traceID {
			t.Fatalf("foreign event in trace dump: %+v", ev)
		}
		names[ev.Name]++
	}
	for _, want := range []string{"service.query", "service.queue", "engine.execute",
		"engine.load", "engine.eval", "engine.scan", "store.enumerate", "store.compute", "knowledge.eval"} {
		if names[want] == 0 {
			t.Errorf("trace is missing span %q (have %v)", want, names)
		}
	}

	// The JSONL sink, which renders each event as it ends, saw the same
	// trace as the ring, which renders on read: the same events with
	// the same IDs, parents, names, labels, begin times and durations.
	events, err := telemetry.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fileEvents []telemetry.Event
	for _, ev := range events {
		if ev.Trace == traceID {
			fileEvents = append(fileEvents, ev)
		}
	}
	// Spans that end concurrently may reach the two sinks in different
	// orders; compare both in one canonical order.
	canonical := func(evs []telemetry.Event) []telemetry.Event {
		out := append([]telemetry.Event(nil), evs...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.T != b.T {
				return a.T < b.T
			}
			if a.Span != b.Span {
				return a.Span < b.Span
			}
			return a.Name < b.Name
		})
		return out
	}
	if got, want := canonical(dump.Events), canonical(fileEvents); !reflect.DeepEqual(got, want) {
		t.Errorf("ring and JSONL sink disagree on the trace:\nring %+v\nfile %+v", got, want)
	}
}

// TestDebugTraceNotFound pins the 404 and the bad-ID rejection, and
// that the daemon serves no query history beside the trace ring.
func TestDebugTraceNotFound(t *testing.T) {
	telemetry.SetRing(64)
	defer telemetry.SetRing(0)
	ts, _ := newTestServer(t, 0)
	for path, want := range map[string]int{
		"/debug/trace/no-such-trace": http.StatusNotFound,
		"/debug/trace/bad%20id":      http.StatusBadRequest,
		"/debug/queries":             http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestSlowQueryLogAndIncidents checks the flight recorder's disk
// surfaces: a query above the slow threshold lands in the slow-query
// JSONL, and a store quarantine triggers a rate-limited incident dump
// containing the retention ring.
func TestSlowQueryLogAndIncidents(t *testing.T) {
	telemetry.SetRing(1024)
	defer telemetry.SetRing(0)

	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "cache"), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(st, 0))
	slowPath := filepath.Join(dir, "slow.jsonl")
	incDir := filepath.Join(dir, "incidents")
	if err := srv.SetObservability(ObservabilityConfig{
		SlowLogPath:   slowPath,
		SlowThreshold: time.Nanosecond, // everything is slow
		IncidentDir:   incDir,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wireChecked(t, srv.Handler()))
	defer ts.Close()

	resp, data := postQuery(t, ts, Request{Formula: "Cbox E0 -> C E0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	slow, err := os.ReadFile(slowPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec QueryRecord
	if err := json.Unmarshal(bytes.TrimSpace(bytes.Split(slow, []byte("\n"))[0]), &rec); err != nil {
		t.Fatalf("slow log line does not parse: %v in %q", err, slow)
	}
	if rec.Status != "ok" || rec.Formula != "Cbox E0 -> C E0" || rec.TraceID == "" {
		t.Fatalf("bad slow-log record: %+v", rec)
	}

	// Corruption path: open a fresh store over the same directory (so
	// nothing is memory-resident and the recovery scan runs before the
	// corruption exists), install the hook, then corrupt the snapshot.
	// The cold load reads the corrupt file, quarantines it, and the
	// hook drops an incident dump.
	st2, err := store.Open(filepath.Join(dir, "cache"), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(NewEngine(st2, 0))
	if err := srv2.SetObservability(ObservabilityConfig{IncidentDir: incDir}); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "cache", "systems", "*.eba"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	if err := os.WriteFile(snaps[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.engine.Execute(context.Background(), Request{Formula: "Cbox E0 -> C E0"}); err != nil {
		t.Fatal(err)
	}
	dumps, err := filepath.Glob(filepath.Join(incDir, "incident-quarantine-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Fatal("no quarantine incident dump written")
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Split(raw, []byte("\n"))[0]
	if !strings.Contains(string(first), `"reason":"quarantine"`) &&
		!strings.Contains(string(first), `"reason": "quarantine"`) {
		t.Errorf("incident header missing reason: %s", first)
	}
}
