package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// Batch limits. A batch is one HTTP request, so the item bound keeps a
// single call from monopolizing the daemon, and the body bound is the
// per-item request bound times the item bound (requests are small).
const (
	// MaxBatchItems bounds the queries in one POST /v1/query/batch.
	MaxBatchItems = 1024
	// maxBatchBody bounds the batch request body.
	maxBatchBody = 8 << 20
	// batchWorkers bounds intra-batch concurrency: items fan out
	// concurrently, but each still passes the admission gate, so the
	// daemon's global caps hold across overlapping batches.
	batchWorkers = 16
)

// BatchRequest is the POST /v1/query/batch body: an ordered list of
// independent queries.
type BatchRequest struct {
	Queries []Request `json:"queries"`
}

// BatchItem is one query's slot in a batch response: either a full
// Response (with its own provenance block) or an error with the HTTP
// status the query would have received standalone. Exactly one of
// Response and Error is set.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
	Status   int       `json:"status,omitempty"`
}

// BatchResponse is the POST /v1/query/batch reply. Results[i] answers
// Queries[i].
type BatchResponse struct {
	Results   []BatchItem `json:"results"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// statusLabel names an item's HTTP status (0 for an answered item) as
// its eba_service_queries_total status, the one handleQuery records for
// the same outcome.
func statusLabel(code int) string {
	switch code {
	case 0:
		return "ok"
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusServiceUnavailable:
		return "retryable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "error"
	}
}

// itemStatus maps an execution error to the HTTP status the same query
// would have received on /v1/query, so batch callers can retry
// selectively (429/503/504 items are retryable, 400/500 are verdicts).
func itemStatus(err error) int {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, store.ErrRetryable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// ExecuteBatch runs a group of queries locally: items fan out across a
// bounded worker pool, each passing the admission gate exactly as a
// standalone query would (cheap/expensive classification included), so
// a batch cannot bypass the daemon's caps — it only amortizes the HTTP
// round trip. Item failures are isolated: one bad or shed query leaves
// the rest of the batch intact.
func (s *Server) ExecuteBatch(ctx context.Context, reqs []Request) []BatchItem {
	results := make([]BatchItem, len(reqs))
	workers := batchWorkers
	if len(reqs) < workers {
		workers = len(reqs)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = s.executeBatchItem(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// executeBatchItem is one item's pass through admission and the
// engine, counted under the status handleQuery would record for it.
func (s *Server) executeBatchItem(ctx context.Context, req Request) (it BatchItem) {
	defer func() { mQueries[statusLabel(it.Status)].Inc() }()
	fail := func(err error) BatchItem {
		return BatchItem{Error: err.Error(), Status: itemStatus(err)}
	}
	key, pf, err := s.engine.resolve(req)
	if err != nil {
		return fail(err)
	}
	expensive := !s.engine.CachedInMemory(key)
	release, err := s.adm.Acquire(ctx, key, expensive)
	if err != nil {
		return fail(err)
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	resp, err := s.engine.executeInline(ctx, key, pf, req.Formula)
	if err != nil {
		return fail(err)
	}
	return BatchItem{Response: resp}
}

// handleBatch is POST /v1/query/batch: decode, execute all items under
// the admission caps, preserve order. One trace ID covers the whole
// batch; per-item provenance still breaks out each item's stages.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	traceID := r.Header.Get("X-Eba-Trace-Id")
	if !telemetry.ValidTraceID(traceID) {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set("X-Eba-Trace-Id", traceID)
	ctx := telemetry.ContextWithTraceID(r.Context(), traceID)
	ctx, sp := telemetry.StartSpan(ctx, "service.batch")
	defer sp.End()

	// A batch refused whole counts as one query.
	reject := func(status string, code int, msg string) {
		mQueries[status].Inc()
		writeJSON(w, code, errorBody{Error: msg})
	}
	var breq BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		reject("bad_request", http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(breq.Queries) == 0 {
		reject("bad_request", http.StatusBadRequest, "empty batch")
		return
	}
	if len(breq.Queries) > MaxBatchItems {
		reject("bad_request", http.StatusBadRequest,
			"batch too large: "+strconv.Itoa(len(breq.Queries))+" items (max "+strconv.Itoa(MaxBatchItems)+")")
		return
	}
	if s.draining.Load() {
		setRetryAfter(w, s.adm.cfg.RetryAfter)
		reject("shed", http.StatusServiceUnavailable, "draining: daemon is shutting down")
		return
	}
	start := time.Now()
	results := s.ExecuteBatch(ctx, breq.Queries)
	// One slow-log line covers the batch: per-item lines at batch rates
	// would turn the log into pure churn.
	if elapsed := time.Since(start); s.fr.isSlow(elapsed) {
		status := "ok"
		for _, it := range results {
			if it.Error != "" {
				status = "partial"
				break
			}
		}
		s.fr.logSlow(QueryRecord{
			TraceID: traceID, Formula: "batch[" + strconv.Itoa(len(breq.Queries)) + "]",
			Status: status, StartedAt: start.UTC(),
		}, elapsed)
	}
	writeJSONCompact(w, http.StatusOK, BatchResponse{
		Results:   results,
		ElapsedMS: msSince(start),
	})
}

// writeJSONCompact is writeJSON without indentation — batch responses
// are machine-consumed arrays where the pretty-printing would double
// the bytes on the wire.
func writeJSONCompact(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}
