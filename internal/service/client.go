package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// sharedTransport is the connection pool behind every client this
// package constructs. Fan-out traffic (batch scatter, forwarded
// queries, health probes) hammers a handful of peer hosts, so the
// per-host idle pool is sized well above the default 2 — otherwise
// each burst tears down and redials connections, and retries land on
// cold TCP instead of reusing the socket that just carried the 503.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   64,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   5 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
	ForceAttemptHTTP2:     true,
}

// SharedTransport exposes the tuned pool for callers (the cluster
// router, probes) that build their own http.Client but should share
// the fleet's sockets rather than grow private pools.
func SharedTransport() *http.Transport { return sharedTransport }

// Client is the retrying HTTP client for the ebad daemon, shared by
// ebaq -server, the benchmark's traced client row, and the CI smoke
// jobs. It honors Retry-After on 429/503 sheds, backs off
// exponentially with jitter on retryable failures, and gives up when
// the retry budget (attempts or wall-clock) is exhausted — the
// client-side half of the daemon's admission control contract.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// MaxRetries bounds retry attempts after the first try (0 = no
	// retries). BaseBackoff doubles per attempt up to MaxBackoff, with
	// ±25% jitter; a server Retry-After overrides the backoff when
	// larger. Budget bounds total wall-clock across attempts and waits.
	MaxRetries  int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Budget      time.Duration
	// AttemptTimeout bounds each individual attempt (0 = only the
	// http.Client timeout applies). Without it one hung attempt eats
	// the whole Budget; with it a stuck peer costs one attempt and the
	// retry loop moves on.
	AttemptTimeout time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Int64
	sheds   atomic.Int64
}

// NewClient builds a client with the default retry policy (4 retries,
// 100ms base backoff capped at 5s, 30s budget), then applies the
// EBA_RETRY_MAX and EBA_RETRY_BUDGET environment overrides.
func NewClient(baseURL string) *Client {
	c := &Client{
		BaseURL:     baseURL,
		HTTP:        &http.Client{Timeout: 5 * time.Minute, Transport: sharedTransport},
		MaxRetries:  4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  5 * time.Second,
		Budget:      30 * time.Second,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if v, err := strconv.Atoi(os.Getenv("EBA_RETRY_MAX")); err == nil && v >= 0 {
		c.MaxRetries = v
	}
	if d, err := time.ParseDuration(os.Getenv("EBA_RETRY_BUDGET")); err == nil && d > 0 {
		c.Budget = d
	}
	if d, err := time.ParseDuration(os.Getenv("EBA_ATTEMPT_TIMEOUT")); err == nil && d > 0 {
		c.AttemptTimeout = d
	}
	return c
}

// Retries reports how many retry attempts this client has made.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Sheds reports how many 429/503 shed responses this client has seen.
func (c *Client) Sheds() int64 { return c.sheds.Load() }

// StatusError is a non-OK daemon response the client gave up on.
type StatusError struct {
	StatusCode int
	Body       string
	Attempts   int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon returned %d after %d attempt(s): %s", e.StatusCode, e.Attempts, e.Body)
}

// retryable reports whether a status is worth retrying: explicit sheds
// and drains (429, 503) and gateway timeouts (504). 4xx and 500 are
// verdicts about the request itself.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// backoff computes the wait before retry attempt (0-based), with ±25%
// jitter so synchronized clients don't re-stampede the daemon.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.BaseBackoff << attempt
	if d > c.MaxBackoff || d <= 0 {
		d = c.MaxBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	c.mu.Lock()
	jitter := 0.75 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// post issues one attempt against path and fully drains the response.
func (c *Client) post(ctx context.Context, path string, body []byte, traceID string) (status int, retryAfter time.Duration, respBody []byte, err error) {
	if c.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.AttemptTimeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Eba-Trace-Id", traceID)
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	// 32 MiB: a full 1024-item batch response with provenance blocks.
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return 0, 0, nil, err
	}
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, data, nil
}

// postRetry runs the retry loop for one logical request against path
// and returns the 200 response body.
func (c *Client) postRetry(ctx context.Context, path string, body []byte) ([]byte, error) {
	// One trace ID covers the whole logical query: retries reuse it, so
	// the daemon-side trace shows every attempt under one ID. A caller
	// that already carries a trace (a test, a CLI flag) wins.
	traceID := telemetry.TraceIDFromContext(ctx)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	if c.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Budget)
		defer cancel()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, retryAfter, data, err := c.post(ctx, path, body, traceID)
		switch {
		case err == nil && status == http.StatusOK:
			return data, nil
		case err != nil:
			lastErr = err
		default:
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				c.sheds.Add(1)
			}
			lastErr = &StatusError{StatusCode: status, Body: string(bytes.TrimSpace(data)), Attempts: attempt + 1}
			if !retryable(status) {
				return nil, lastErr
			}
		}
		if attempt >= c.MaxRetries {
			return nil, fmt.Errorf("retries exhausted: %w", lastErr)
		}
		wait := c.backoff(attempt, retryAfter)
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("retry budget exhausted: %w", lastErr)
		}
		c.retries.Add(1)
	}
}

// Query executes one request against the daemon, retrying sheds and
// transport failures within the retry budget.
func (c *Client) Query(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, err := c.postRetry(ctx, "/v1/query", body)
	if err != nil {
		return nil, err
	}
	var out Response
	if uerr := json.Unmarshal(data, &out); uerr != nil {
		return nil, fmt.Errorf("bad daemon response: %w", uerr)
	}
	return &out, nil
}

// QueryBatch executes a group of requests in one round trip via
// POST /v1/query/batch. The batch as a whole retries on shed/transport
// failure; per-item errors come back inside the BatchResponse (the
// daemon isolates them), so a partial batch is a success at this layer.
func (c *Client) QueryBatch(ctx context.Context, reqs []Request) (*BatchResponse, error) {
	body, err := json.Marshal(BatchRequest{Queries: reqs})
	if err != nil {
		return nil, err
	}
	data, err := c.postRetry(ctx, "/v1/query/batch", body)
	if err != nil {
		return nil, err
	}
	var out BatchResponse
	if uerr := json.Unmarshal(data, &out); uerr != nil {
		return nil, fmt.Errorf("bad daemon batch response: %w", uerr)
	}
	if len(out.Results) != len(reqs) {
		return nil, fmt.Errorf("daemon batch response has %d results for %d queries", len(out.Results), len(reqs))
	}
	return &out, nil
}
