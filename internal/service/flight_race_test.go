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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// TestFlightRecorderConcurrent drives concurrent queries through
// Server.Handler() with every query slow (1ns threshold), admission
// caps tight enough to shed, and a corrupt snapshot whose quarantine
// dumps an incident while other queries write spans and slow-log
// lines. Every slow-log line parses, and there is one per query. Run
// with -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	telemetry.SetRing(256)
	defer telemetry.SetRing(0)

	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	seed, err := store.Open(cache, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(seed, 0).Execute(context.Background(), Request{Formula: "E0"}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(cache, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(st, 0))
	srv.SetAdmission(AdmissionConfig{MaxInflight: 1, PerKey: 1, MaxQueue: 1, QueueTimeout: time.Microsecond})
	slowPath, incDir := filepath.Join(dir, "slow.jsonl"), filepath.Join(dir, "incidents")
	if err := srv.SetObservability(ObservabilityConfig{
		SlowLogPath: slowPath, SlowThreshold: time.Nanosecond, IncidentDir: incDir,
	}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot after the recovery scan, so the first load
	// under traffic quarantines it.
	snaps, err := filepath.Glob(filepath.Join(cache, "systems", "*.eba"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	if err := os.WriteFile(snaps[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients, perClient = 8, 25
	formulas := []string{"E0", "C E0 -> Cbox E0", "K0 E0", "Cbox E0 -> C E0"}
	var wg sync.WaitGroup
	var shed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body, _ := json.Marshal(Request{Formula: formulas[(c+i)%len(formulas)]}) //nolint:errcheck // static request
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("query status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no query was shed; the admission caps did not bite")
	}

	slow, err := os.ReadFile(slowPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(slow, []byte("\n")), []byte("\n"))
	statuses := map[string]int{}
	for _, line := range lines {
		var rec QueryRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("torn slow-log line %q: %v", line, err)
		}
		if rec.TraceID == "" || rec.Formula == "" || rec.Key == "" || rec.Status == "" {
			t.Fatalf("incomplete slow-log record: %+v", rec)
		}
		statuses[rec.Status]++
	}
	if len(lines) != clients*perClient {
		t.Fatalf("%d slow-log lines for %d queries", len(lines), clients*perClient)
	}
	if statuses["shed"] != int(shed.Load()) {
		t.Errorf("slow log has %d shed queries, clients saw %d (statuses %v)", statuses["shed"], shed.Load(), statuses)
	}
	for _, reason := range []string{"shed", "quarantine"} {
		dumps, err := filepath.Glob(filepath.Join(incDir, "incident-"+reason+"-*.jsonl"))
		if err != nil || len(dumps) != 1 {
			t.Errorf("%s incident dumps %v (%v), want one (rate-limited)", reason, dumps, err)
		}
	}
}

// TestDebugTraceRacesRetentionEviction polls /debug/trace/{id} while
// concurrent queries write spans through a deliberately tiny retention
// ring, so reads race eviction end to end over HTTP. Run with -race.
func TestDebugTraceRacesRetentionEviction(t *testing.T) {
	old := telemetry.DefaultRing()
	telemetry.SetRing(16)
	t.Cleanup(func() {
		if old != nil {
			telemetry.SetRing(old.Cap())
		}
	})

	ts, _ := newTestServer(t, 0)
	postQuery(t, ts, Request{Formula: "E0"}) // warm the system

	const traceID = "fedcba9876543210fedcba9876543210"
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(Request{Formula: "E0"}) //nolint:errcheck // static request
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
				if err != nil {
					t.Errorf("new request: %v", err)
					return
				}
				id := traceID
				if i%2 == 1 {
					id = telemetry.NewTraceID() // churn other traces through the ring
				}
				req.Header.Set("X-Eba-Trace-Id", id)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				resp.Body.Close()
			}
		}()
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/debug/trace/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// 404 (aged out) and 200 are both legal; torn JSON is not.
		if resp.StatusCode == http.StatusOK {
			var body struct {
				TraceID string            `json:"trace_id"`
				Events  []telemetry.Event `json:"events"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("torn trace body: %v: %s", err, data)
			}
			for _, ev := range body.Events {
				if ev.Trace != traceID {
					t.Fatalf("trace %s returned foreign event %+v", traceID, ev)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
