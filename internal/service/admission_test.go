package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// corruptSnapshot flips a byte in the middle of a persisted snapshot
// so the next boot scan quarantines it.
func corruptSnapshot(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, "systems", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// admissionServer builds a server with explicit admission caps over a
// memory-only store, returning the pieces the tests poke at.
func admissionServer(t *testing.T, st *store.Store, cfg AdmissionConfig) (*httptest.Server, *Server) {
	t.Helper()
	if st == nil {
		var err error
		st, err = store.Open("", 8)
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(NewEngine(st, 0))
	srv.SetAdmission(cfg)
	ts := httptest.NewServer(wireChecked(t, srv.Handler()))
	t.Cleanup(ts.Close)
	return ts, srv
}

// postRaw posts a query and returns status, Retry-After header, body.
func postRaw(t *testing.T, url string, req Request) (int, string, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), data
}

// gatedStore returns a store whose enumerator blocks until release is
// closed, so tests can hold queries in flight deterministically.
func gatedStore(t *testing.T) (*store.Store, chan struct{}) {
	t.Helper()
	st, err := store.Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	st.SetEnumerator(func(k store.Key) (*system.System, error) {
		<-release
		return system.Enumerate(types.Params{N: k.N, T: k.T}, k.Mode, k.Horizon, k.Limit)
	})
	return st, release
}

// TestAdmissionConcurrentClients is the satellite coverage matrix: 64
// concurrent clients against caps of 1, 4, and unbounded, run under
// -race in CI. It asserts no lost wakeups (every request gets a
// verdict, slots are not leaked afterwards), bounded queue depth, and
// correct 429 + Retry-After shed responses.
func TestAdmissionConcurrentClients(t *testing.T) {
	const clients = 64
	cheap := Request{Formula: "E0"}

	fireAll := func(t *testing.T, url string) (codes []int, retryAfters []string) {
		t.Helper()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, ra, _ := postRaw(t, url, cheap)
				mu.Lock()
				codes = append(codes, status)
				retryAfters = append(retryAfters, ra)
				mu.Unlock()
			}()
		}
		wg.Wait()
		return codes, retryAfters
	}

	t.Run("unbounded", func(t *testing.T) {
		ts, srv := admissionServer(t, nil, AdmissionConfig{})
		codes, _ := fireAll(t, ts.URL)
		for _, c := range codes {
			if c != http.StatusOK {
				t.Fatalf("unbounded cap shed a request: %d", c)
			}
		}
		if srv.inflight.Load() != 0 {
			t.Fatalf("inflight gauge leaked: %d", srv.inflight.Load())
		}
	})

	t.Run("cap1-queue-covers-all", func(t *testing.T) {
		// Queue deep enough for everyone: all 64 serialize through one
		// slot and every single one must complete — the no-lost-wakeup
		// property of the channel semaphore.
		ts, srv := admissionServer(t, nil, AdmissionConfig{
			MaxInflight: 1, MaxQueue: clients, QueueTimeout: 30 * time.Second,
		})
		codes, _ := fireAll(t, ts.URL)
		if len(codes) != clients {
			t.Fatalf("%d verdicts for %d clients", len(codes), clients)
		}
		for _, c := range codes {
			if c != http.StatusOK {
				t.Fatalf("cap=1 with a covering queue shed a request: %d", c)
			}
		}
		if hw := srv.adm.maxQueued.Load(); hw > clients {
			t.Fatalf("queue depth high-water %d exceeds bound %d", hw, clients)
		}
		if srv.adm.queued.Load() != 0 {
			t.Fatalf("queue not drained: %d", srv.adm.queued.Load())
		}
	})

	t.Run("cap4-sheds-excess", func(t *testing.T) {
		// Hold 4 slots on a gated cold enumeration, then hit the
		// daemon with 64 cheap queries over a queue of 8: the queue
		// must stay bounded and the excess must shed 429 with a
		// Retry-After header.
		st, release := gatedStore(t)
		ts, srv := admissionServer(t, st, AdmissionConfig{
			MaxInflight: 4, PerKey: 4, MaxQueue: 8, QueueTimeout: 250 * time.Millisecond,
		})
		expensive := Request{Formula: "E0", Mode: "omission", Limit: 500}
		var holders sync.WaitGroup
		for i := 0; i < 4; i++ {
			holders.Add(1)
			go func() {
				defer holders.Done()
				postRaw(t, ts.URL, expensive)
			}()
		}
		// Wait until all 4 global slots are actually held.
		deadline := time.Now().Add(5 * time.Second)
		for len(srv.adm.slots) < 4 {
			if time.Now().After(deadline) {
				t.Fatal("slots never filled")
			}
			time.Sleep(2 * time.Millisecond)
		}

		codes, retryAfters := fireAll(t, ts.URL)
		var ok200, shed429 int
		for i, c := range codes {
			switch c {
			case http.StatusOK:
				ok200++
			case http.StatusTooManyRequests:
				shed429++
				secs, err := strconv.Atoi(retryAfters[i])
				if err != nil || secs < 1 {
					t.Fatalf("429 Retry-After %q, want integer >= 1", retryAfters[i])
				}
			default:
				t.Fatalf("unexpected status %d (admission must shed, not fail)", c)
			}
		}
		if shed429 == 0 {
			t.Fatal("no sheds despite saturated slots")
		}
		if hw := srv.adm.maxQueued.Load(); hw > 8 {
			t.Fatalf("queue depth high-water %d for bound 8", hw)
		}

		// Overloaded state is visible in the tri-state health check.
		hresp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hbody, _ := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(hbody, []byte("overloaded")) {
			t.Fatalf("healthz under saturation: %d %s, want 503 overloaded", hresp.StatusCode, hbody)
		}

		close(release)
		holders.Wait()

		// No lost wakeups or leaked slots: with pressure gone, a fresh
		// query is admitted immediately.
		wait := time.Now().Add(5 * time.Second)
		for {
			status, _, _ := postRaw(t, ts.URL, cheap)
			if status == http.StatusOK {
				break
			}
			if time.Now().After(wait) {
				t.Fatalf("daemon did not recover after release: %d", status)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if got := len(srv.adm.slots); got != 0 {
			t.Fatalf("%d global slots leaked", got)
		}
		srv.adm.mu.Lock()
		keys := len(srv.adm.perKey)
		srv.adm.mu.Unlock()
		if keys != 0 {
			t.Fatalf("%d per-key slots leaked", keys)
		}
	})
}

// TestPerKeyCapSheds: expensive queries for one key beyond the per-key
// cap shed even though global slots are free.
func TestPerKeyCapSheds(t *testing.T) {
	st, release := gatedStore(t)
	ts, _ := admissionServer(t, st, AdmissionConfig{
		MaxInflight: 16, PerKey: 1, MaxQueue: 32, QueueTimeout: 150 * time.Millisecond,
	})
	expensive := Request{Formula: "E0", Mode: "omission", Limit: 400}

	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			status, _, _ := postRaw(t, ts.URL, expensive)
			results <- status
		}()
	}
	var ok, shed int
	timeout := time.After(10 * time.Second)
	got := 0
	for got < 2 {
		select {
		case s := <-results:
			got++
			if s == http.StatusTooManyRequests {
				shed++
			}
		case <-timeout:
			t.Fatal("sheds did not arrive")
		}
	}
	if shed < 2 {
		t.Fatalf("per-key cap 1 with 3 concurrent cold computes shed %d, want 2", shed)
	}
	close(release)
	select {
	case s := <-results:
		if s == http.StatusOK {
			ok++
		}
	case <-timeout:
		t.Fatal("winner never finished")
	}
	if ok != 1 {
		t.Fatal("the admitted cold compute did not succeed")
	}
}

// TestHealthzDegraded: disk errors flip the health verdict to
// "degraded" while still serving 200.
func TestHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := admissionServer(t, st, AdmissionConfig{MaxInflight: 8})

	// Healthy first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Persist a snapshot, corrupt it, evict it from memory by reopening
	// the store via a fresh server, and watch the degraded verdict
	// after the corrupt read.
	if status, _, _ := postRaw(t, ts.URL, Request{Formula: "E0"}); status != http.StatusOK {
		t.Fatal("seed query failed")
	}
	snaps := st.DiskSnapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	corruptSnapshot(t, dir, snaps[0])

	st2, err := store.Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts2, _ := admissionServer(t, st2, AdmissionConfig{MaxInflight: 8})
	resp, err = http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("healthz after quarantine: %d %s, want degraded", resp.StatusCode, body)
	}
}
