package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// TestFlightRecorderConcurrent drives begin/finish/incident from many
// writers while snapshot readers race the ring's eviction — the shape
// /debug/queries sees on a loaded daemon. Run with -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := newFlightRecorder(8) // tiny ring: finishes evict constantly

	const writers = 8
	const perWriter = 200
	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < perWriter; i++ {
				id := fr.begin(QueryRecord{
					TraceID:   fmt.Sprintf("%032d", w),
					Formula:   "E0",
					StartedAt: time.Now().UTC(),
				})
				valid := i%2 == 0
				fr.finish(id, "ok", 100*time.Microsecond, StageTimings{}, &valid)
				if i%50 == 0 {
					fr.incident("race-test", "synthetic")
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inflight, recent := fr.snapshot()
				if len(recent) > 8 {
					t.Errorf("recent ring returned %d records, cap 8", len(recent))
					return
				}
				for _, rec := range append(inflight, recent...) {
					if rec.Formula != "E0" {
						t.Errorf("torn record: %+v", rec)
						return
					}
				}
			}
		}()
	}
	wgW.Wait()
	close(stop)
	wgR.Wait()

	inflight, recent := fr.snapshot()
	if len(inflight) != 0 {
		t.Fatalf("%d queries stuck in flight", len(inflight))
	}
	if len(recent) != 8 {
		t.Fatalf("recent ring holds %d, want 8", len(recent))
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
