package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// mQueries counts queries by final status: one series per status,
// pre-registered so no path takes the registry lock.
var mQueries = func() map[string]*telemetry.Counter {
	m := make(map[string]*telemetry.Counter)
	for _, status := range []string{"ok", "bad_request", "timeout", "shed", "retryable", "error"} {
		m[status] = telemetry.Default().Counter("eba_service_queries_total", telemetry.L("status", status))
	}
	return m
}()

// Server is the ebad HTTP surface: query execution behind admission
// control, cache inventory, tri-state health, and metrics.
type Server struct {
	engine   *Engine
	adm      *admission
	fr       *flightRecorder
	started  time.Time
	inflight atomic.Int64
	draining atomic.Bool
}

// NewServer wraps an engine with no admission caps (the zero
// AdmissionConfig); call SetAdmission before serving to bound load.
// The flight recorder starts off; call SetObservability to add the
// slow-query log and incident dumps.
func NewServer(e *Engine) *Server {
	return &Server{
		engine:  e,
		adm:     newAdmission(AdmissionConfig{}),
		fr:      &flightRecorder{},
		started: time.Now(),
	}
}

// SetAdmission installs admission caps. Call before serving; it is not
// safe to swap under live traffic.
func (s *Server) SetAdmission(cfg AdmissionConfig) { s.adm = newAdmission(cfg) }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/systems", s.handleSystems)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", telemetry.MetricsHandler())
	mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// setRetryAfter advertises a backoff hint in whole seconds (minimum 1,
// per RFC 9110's integer grammar).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Adopt the caller's trace ID (so a client can pre-correlate its
	// logs with ours) or mint one; either way the response carries it.
	traceID := r.Header.Get("X-Eba-Trace-Id")
	if !telemetry.ValidTraceID(traceID) {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set("X-Eba-Trace-Id", traceID)
	ctx := telemetry.ContextWithTraceID(r.Context(), traceID)
	ctx, rootSp := telemetry.StartSpan(ctx, "service.query")
	status := "error"
	defer func() {
		mQueries[status].Inc()
		rootSp.End(telemetry.L("status", status))
	}()

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status = "bad_request"
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if s.draining.Load() {
		status = "shed"
		s.fr.incident("drain", req.Formula)
		setRetryAfter(w, s.adm.cfg.RetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining: daemon is shutting down"})
		return
	}
	// Resolve up front so admission can classify the query: a
	// memory-resident system is a cheap cached lookup, anything else
	// is an expensive disk decode or cold enumeration and must also
	// pass the per-key gate.
	key, pf, err := s.engine.resolve(req)
	if err != nil {
		status = "bad_request"
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	start := time.Now()
	var stages StageTimings
	var valid *bool
	defer func() {
		if elapsed := time.Since(start); s.fr.isSlow(elapsed) {
			s.fr.logSlow(QueryRecord{
				TraceID: traceID, Formula: req.Formula, Key: key.Slug(), Status: status,
				StartedAt: start.UTC(), Stages: stages, Valid: valid,
			}, elapsed)
		}
	}()

	expensive := !s.engine.CachedInMemory(key)
	_, queueSp := telemetry.StartSpanAt(ctx, start, "service.queue")
	release, err := s.adm.Acquire(ctx, key, expensive)
	queued := time.Now()
	queueSp.EndAt(queued)
	stages.QueueMS = msBetween(start, queued)
	if err != nil {
		status = "shed"
		s.fr.incident("shed", err.Error())
		var shed *ShedError
		if errors.As(err, &shed) {
			setRetryAfter(w, shed.RetryAfter)
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: shed.Error()})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	defer release()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	resp, err := s.engine.executeWatched(ctx, key, pf, req.Formula)
	switch {
	case err == nil:
		status = "ok"
		if resp.Provenance != nil {
			// The engine measured its own stages; only the server knows
			// how long admission held the request first. Fold the queue
			// into the elapsed clock too, so the stage sum stays a lower
			// bound on what the response reports.
			resp.Provenance.Stages.QueueMS = stages.QueueMS
			resp.ElapsedMS = msSince(start)
			stages = resp.Provenance.Stages
		}
		valid = &resp.Valid
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrBadRequest):
		status = "bad_request"
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, store.ErrRetryable):
		// A singleflight follower whose leader failed: this request
		// never ran, a retry gets a fresh attempt.
		status = "retryable"
		setRetryAfter(w, s.adm.cfg.RetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = "timeout"
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "query timed out: " + err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidTraceID(id) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad trace id"})
		return
	}
	events := telemetry.TraceEvents(id)
	if len(events) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "trace not found (no retention ring installed, or the trace has aged out)"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "events": events})
}

// systemsBody is the GET /v1/systems response.
type systemsBody struct {
	Dir         string             `json:"dir,omitempty"`
	Memory      []store.SystemInfo `json:"memory"`
	Snapshots   []string           `json:"snapshots,omitempty"`
	Quarantined []string           `json:"quarantined,omitempty"`
	Stats       store.Stats        `json:"stats"`
}

func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Store()
	writeJSON(w, http.StatusOK, systemsBody{
		Dir:         st.Dir(),
		Memory:      st.Inventory(),
		Snapshots:   st.DiskSnapshots(),
		Quarantined: st.QuarantinedFiles(),
		Stats:       st.Stats(),
	})
}

// health computes the tri-state verdict: "ok", "degraded" (serving,
// but the store has seen disk errors or quarantined files — worth an
// operator's look), or an unhealthy 503 state ("overloaded" while the
// admission queue is saturated or actively shedding, "draining" during
// shutdown) that tells load balancers to back off.
func (s *Server) health() (int, string) {
	switch {
	case s.draining.Load():
		return http.StatusServiceUnavailable, "draining"
	case s.adm.saturated():
		return http.StatusServiceUnavailable, "overloaded"
	}
	st := s.engine.Store().Stats()
	if st.Quarantined > 0 || st.DiskErrors > 0 {
		return http.StatusOK, "degraded"
	}
	return http.StatusOK, "ok"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code, status := s.health()
	if code != http.StatusOK {
		setRetryAfter(w, s.adm.cfg.RetryAfter)
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"uptime_s": time.Since(s.started).Seconds(),
		"inflight": s.inflight.Load(),
		"queued":   s.adm.queued.Load(),
	})
}

// ListenAndServe runs the server on addr until ctx is canceled, then
// drains: in-flight queries get up to grace to finish while arriving
// queries are answered 503 + Retry-After (never a connection reset),
// and only then is the listener torn down.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, grace)
}

// Serve is ListenAndServe over an existing listener (tests bind to
// port 0 and read the address back).
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Drain phase: keep accepting so mid-drain arrivals get an orderly
	// 503 instead of a reset, while waiting out the in-flight queries.
	s.draining.Store(true)
	deadline := time.Now().Add(grace)
	for s.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
