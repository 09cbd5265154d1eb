package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// shedThenOK returns a handler that sheds the first n requests with
// status (and Retry-After ra), then answers 200 with a valid Response.
func shedThenOK(n int64, status int, ra string) (http.HandlerFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"error":"overloaded"}`)) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(Response{Formula: "E0", Valid: true}) //nolint:errcheck
	}, &calls
}

func fastClient(url string) *Client {
	c := NewClient(url)
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	c.Budget = 10 * time.Second
	return c
}

// TestClientRetriesShedsThenSucceeds: the client absorbs 429 sheds and
// succeeds once the daemon admits it, counting retries and sheds.
func TestClientRetriesShedsThenSucceeds(t *testing.T) {
	h, calls := shedThenOK(2, http.StatusTooManyRequests, "0")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(ts.URL)
	resp, err := c.Query(context.Background(), Request{Formula: "E0"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !resp.Valid || resp.Formula != "E0" {
		t.Fatalf("bad response: %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts %d, want 3", got)
	}
	if c.Retries() != 2 || c.Sheds() != 2 {
		t.Fatalf("retries %d sheds %d, want 2 and 2", c.Retries(), c.Sheds())
	}
}

// TestClientHonorsRetryAfter: a server Retry-After larger than the
// backoff schedule stretches the wait (1s with -25% jitter floor).
func TestClientHonorsRetryAfter(t *testing.T) {
	h, _ := shedThenOK(1, http.StatusServiceUnavailable, "1")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(ts.URL)
	start := time.Now()
	if _, err := c.Query(context.Background(), Request{Formula: "E0"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 700*time.Millisecond {
		t.Fatalf("retried after %s; Retry-After: 1 was not honored", elapsed)
	}
}

// TestClientNonRetryableFailsFast: a 400 is a verdict about the
// request; retrying it would just repeat the verdict.
func TestClientNonRetryableFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad formula"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	_, err := c.Query(context.Background(), Request{Formula: ")("})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.StatusCode != http.StatusBadRequest {
		t.Fatalf("error %v, want StatusError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("client retried a 400: %d attempts", got)
	}
}

// TestClientRetriesExhausted: a daemon that never admits exhausts the
// attempt budget and surfaces the last shed.
func TestClientRetriesExhausted(t *testing.T) {
	h, calls := shedThenOK(1<<30, http.StatusServiceUnavailable, "0")
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := fastClient(ts.URL)
	c.MaxRetries = 2
	_, err := c.Query(context.Background(), Request{Formula: "E0"})
	if err == nil {
		t.Fatal("query succeeded against an always-shedding daemon")
	}
	var serr *StatusError
	if !errors.As(err, &serr) || serr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("error %v, want wrapped StatusError 503", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts %d, want MaxRetries+1 = 3", got)
	}
}
