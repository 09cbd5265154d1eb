// Package service is the query-execution layer shared by the ebaq CLI
// and the ebad daemon. An Engine resolves a query request to a store
// key, parses the formula, and evaluates it over the (cached) system
// with a per-query evaluator, so any number of queries can run
// concurrently against shared immutable systems. The HTTP surface in
// server.go is a thin codec around Engine.Execute.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// ErrBadRequest marks errors caused by the request itself (unknown
// mode, malformed formula, invalid parameters) as opposed to engine
// failures; the HTTP layer maps it to 400.
var ErrBadRequest = errors.New("bad request")

// DefaultOmissionLimit bounds omission-family enumerations (sending,
// receiving, and general) that don't give an explicit limit, mirroring
// the ebaq default.
const DefaultOmissionLimit = 2_000_000

// Request is one query: a formula plus the system it should be
// evaluated over. Zero-valued fields take defaults (n=3, t=1, crash,
// horizon t+2). Limit bounds an omission-family key's failure patterns
// (0 = DefaultOmissionLimit; a crash key ignores it). It can lower the
// pattern bound, but not raise the bound of system.MaxRuns runs that
// every key is held to.
type Request struct {
	Formula string `json:"formula"`
	N       int    `json:"n,omitempty"`
	T       int    `json:"t,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Horizon int    `json:"horizon,omitempty"`
	Limit   int    `json:"limit,omitempty"`
}

// SystemSummary describes the system a query ran over.
type SystemSummary struct {
	Mode    string `json:"mode"`
	N       int    `json:"n"`
	T       int    `json:"t"`
	Horizon int    `json:"horizon"`
	Limit   int    `json:"limit,omitempty"`
	Runs    int    `json:"runs"`
	Points  int    `json:"points"`
	Origin  string `json:"origin"`
}

// Counterexample is a point where the formula fails. Point is the
// falsifying point's index in the truth table — its provenance: the
// same index against the same system key reproduces the point.
type Counterexample struct {
	Run     int    `json:"run"`
	Time    int    `json:"time"`
	Config  string `json:"config"`
	Pattern string `json:"pattern"`
	Point   int    `json:"point"`
}

// StageTimings is the per-stage latency breakdown of one query: time
// queued in admission, loading (or enumerating) the system, evaluating
// the formula, and scanning for a counterexample. The stages are
// sequential and disjoint, so their sum is a lower bound on ElapsedMS.
type StageTimings struct {
	QueueMS float64 `json:"queue_ms"`
	LoadMS  float64 `json:"load_ms"`
	EvalMS  float64 `json:"eval_ms"`
	ScanMS  float64 `json:"scan_ms"`
}

// Provenance says where an answer came from and what it cost: the
// trace ID to correlate with /debug/trace/{id} and the JSONL sink, the
// stage breakdown, both cache origins, the evaluator's worker bound,
// and — when the table was actually computed this request — the
// evaluator's fixed-point iteration counts.
type Provenance struct {
	TraceID      string               `json:"trace_id,omitempty"`
	Key          string               `json:"key"`
	Stages       StageTimings         `json:"stages"`
	SystemOrigin string               `json:"system_origin"`
	ResultOrigin string               `json:"result_origin"`
	Parallelism  int                  `json:"parallelism"`
	Eval         *knowledge.EvalStats `json:"eval,omitempty"`
}

// Response is a query result.
type Response struct {
	Formula        string          `json:"formula"`
	Valid          bool            `json:"valid"`
	TruePoints     int             `json:"true_points"`
	TotalPoints    int             `json:"total_points"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
	System         SystemSummary   `json:"system"`
	ResultOrigin   string          `json:"result_origin"`
	ElapsedMS      float64         `json:"elapsed_ms"`
	Provenance     *Provenance     `json:"provenance,omitempty"`
}

// Engine executes queries against a snapshot store. Safe for
// concurrent use: systems are immutable once built, evaluators are
// per-query, and the store serializes its own bookkeeping.
type Engine struct {
	store   *store.Store
	timeout time.Duration // per query; 0 = no engine-imposed limit
	// parallel bounds each query evaluator's worker pool; 0 means
	// runtime.GOMAXPROCS(0), 1 forces sequential evaluation.
	parallel int

	// parsed caches Parse results by raw formula text, each beside its
	// canonical rendering. Formulas are immutable trees, so one parse
	// can serve any number of concurrent evaluators; on the batch hot
	// path the parse and the rendering are a measurable share of a
	// cached query's cost.
	parsedMu sync.RWMutex
	parsed   map[string]parsedFormula
}

// parsedFormula is one parse-cache entry. canonical is f.String(), the
// result-memo key, so spacing variants of one formula share a table.
type parsedFormula struct {
	f         knowledge.Formula
	canonical string
}

// parseCacheBound caps the parse cache; past it the map is reset
// rather than evicted (formula churn high enough to hit this means the
// cache wasn't helping anyway).
const parseCacheBound = 4096

// parse is knowledge.Parse behind the engine's formula cache.
func (e *Engine) parse(src string) (parsedFormula, error) {
	e.parsedMu.RLock()
	pf, ok := e.parsed[src]
	e.parsedMu.RUnlock()
	if ok {
		return pf, nil
	}
	f, err := knowledge.Parse(src)
	if err != nil {
		return parsedFormula{}, err
	}
	pf = parsedFormula{f: f, canonical: f.String()}
	e.parsedMu.Lock()
	if e.parsed == nil || len(e.parsed) >= parseCacheBound {
		e.parsed = make(map[string]parsedFormula)
	}
	e.parsed[src] = pf
	e.parsedMu.Unlock()
	return pf, nil
}

// NewEngine wraps a store. timeout bounds each Execute call (0
// disables the bound; a caller-supplied context still applies).
func NewEngine(st *store.Store, timeout time.Duration) *Engine {
	return &Engine{store: st, timeout: timeout}
}

// SetParallelism bounds the per-query evaluator's worker pool. Tables
// are bit-identical at every setting. Call before serving; the
// setting is read by later queries without synchronization.
func (e *Engine) SetParallelism(w int) {
	if w < 0 {
		w = 0
	}
	e.parallel = w
}

// Store returns the engine's store (for inventory endpoints).
func (e *Engine) Store() *store.Store { return e.store }

// CachedInMemory reports whether the key's system is memory-resident —
// the admission layer's cheap/expensive classification: cached lookups
// cost microseconds, everything else may cost a cold enumeration.
func (e *Engine) CachedInMemory(key store.Key) bool { return e.store.CachedInMemory(key) }

// Resolve applies defaults and validates the request, returning the
// store key and the parsed formula.
func (e *Engine) Resolve(req Request) (store.Key, knowledge.Formula, error) {
	key, pf, err := e.resolve(req)
	return key, pf.f, err
}

// resolve is Resolve keeping the formula's canonical text.
func (e *Engine) resolve(req Request) (store.Key, parsedFormula, error) {
	if req.Formula == "" {
		return store.Key{}, parsedFormula{}, fmt.Errorf("%w: missing formula", ErrBadRequest)
	}
	pf, err := e.parse(req.Formula)
	if err != nil {
		return store.Key{}, parsedFormula{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key := store.Key{N: req.N, T: req.T, Horizon: req.Horizon, Limit: req.Limit}
	if key.N == 0 {
		key.N = 3
	}
	if key.T == 0 {
		key.T = 1
	}
	modeName := req.Mode
	if modeName == "" {
		modeName = "crash"
	}
	mode, err := failures.ParseMode(modeName)
	if err != nil {
		// Double-wrap so callers can match either the service-level
		// ErrBadRequest or the typed failures.ErrUnknownMode.
		return store.Key{}, parsedFormula{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	key.Mode = mode
	if mode == failures.Crash {
		// Normalize the limit out of the key so "crash" and "crash,
		// limit=x" share one snapshot; the builder's bound on runs
		// bounds a crash key.
		key.Limit = 0
	} else if key.Limit == 0 {
		// All three omission-family modes get the guard limit; the
		// general mode needs it most (its count is squared per round).
		key.Limit = DefaultOmissionLimit
	}
	if key.Horizon == 0 {
		key.Horizon = key.T + 2
	}
	if err := key.Validate(); err != nil {
		return store.Key{}, parsedFormula{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	// The evaluator indexes per-processor tables by the processors a
	// formula names, so one the system lacks is the request's error.
	if p := knowledge.MaxProc(pf.f); int(p) >= key.N {
		return store.Key{}, parsedFormula{}, fmt.Errorf("%w: formula names processor %d, but the system has processors 0..%d", ErrBadRequest, p, key.N-1)
	}
	return key, pf, nil
}

// Execute runs one query: resolve, load (or enumerate) the system,
// evaluate the formula, and summarize. The work runs on a separate
// goroutine so the context deadline is honored even though the
// evaluator itself is not cancelable; on timeout the goroutine
// finishes in the background and its result still lands in the store
// for the retry.
func (e *Engine) Execute(ctx context.Context, req Request) (*Response, error) {
	key, pf, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	return e.executeWatched(ctx, key, pf, req.Formula)
}

// executeWatched is Execute past resolution, for callers that already
// resolved the request (the HTTP handler does, for admission).
func (e *Engine) executeWatched(ctx context.Context, key store.Key, pf parsedFormula, raw string) (*Response, error) {
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := time.Now()
	type outcome struct {
		resp *Response
		err  error
	}
	ch := make(chan outcome, 1)
	// The core must keep the request's trace but not its cancellation:
	// on timeout it finishes in the background and its result (and its
	// trace) still land for the retry.
	core := telemetry.Detach(ctx)
	go func() {
		resp, err := e.execute(core, key, pf, raw, start)
		ch <- outcome{resp, err}
	}()
	select {
	case out := <-ch:
		return out.resp, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ExecuteSync is Execute without the watchdog goroutine or the
// engine-level timeout: resolve and run inline on the caller's
// goroutine. A batch runs under one deadline, and spawning a goroutine
// per item would cost more than many cached items do.
func (e *Engine) ExecuteSync(ctx context.Context, req Request) (*Response, error) {
	key, pf, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	return e.executeInline(ctx, key, pf, req.Formula)
}

// executeInline is ExecuteSync past resolution: the batch executor's
// per-item path, which resolved the item once already for admission.
func (e *Engine) executeInline(ctx context.Context, key store.Key, pf parsedFormula, raw string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.execute(ctx, key, pf, raw, time.Now())
}

// msSince converts a stopwatch reading to fractional milliseconds.
func msSince(t time.Time) float64 { return msBetween(t, time.Now()) }

// msBetween converts a stopwatch interval to fractional milliseconds.
func msBetween(from, to time.Time) float64 {
	return float64(to.Sub(from).Microseconds()) / 1e3
}

// execute is the uncancelable core of Execute. Its three stages —
// load, eval, scan — run back to back under an engine.execute span,
// and the clock is read once per stage boundary: each reading ends
// one stage's span and stopwatch and begins the next's, so the
// provenance block and the trace show the same intervals (and the
// provenance block works with tracing off). On a memory hit every
// stage is a lookup: the store's answer already holds the table's
// count and its rendered first falsifying point.
func (e *Engine) execute(ctx context.Context, key store.Key, pf parsedFormula, raw string, start time.Time) (*Response, error) {
	slug := key.Slug()
	loadStart := time.Now()
	ctx, rootSp := telemetry.StartSpanAt(ctx, loadStart, "engine.execute", telemetry.L("key", slug))
	status, last := "error", loadStart
	defer func() { rootSp.EndAt(last, telemetry.L("status", status)) }()

	// The load stage makes the system resident; a snapshot the store
	// has seen before stays undecoded until a compute needs it, so that
	// decode, when it comes, shows under engine.eval.
	lctx, loadSp := telemetry.StartSpanAt(ctx, loadStart, "engine.load")
	shape, sysOrigin, err := e.store.Resident(lctx, key)
	evalStart := time.Now()
	last = evalStart
	loadSp.EndAt(evalStart, telemetry.L("origin", sysOrigin.String()))
	if err != nil {
		return nil, err
	}
	ectx, evalSp := telemetry.StartSpanAt(ctx, evalStart, "engine.eval")
	par := knowledge.EffectiveParallelism(e.parallel)
	var evStats *knowledge.EvalStats
	ans, resOrigin, err := e.store.AnswerCtx(ectx, key, pf.canonical, func(sys *system.System) (*knowledge.Bits, error) {
		ev := knowledge.NewEvaluator(sys)
		ev.SetParallelism(e.parallel)
		ev.SetTraceContext(ectx)
		tbl := ev.Eval(pf.f)
		st := ev.Stats()
		evStats, par = &st, ev.Parallelism()
		return tbl, nil
	})
	scanStart := time.Now()
	last = scanStart
	evalSp.EndAt(scanStart, telemetry.L("origin", resOrigin.String()))
	if err != nil {
		return nil, err
	}

	_, scanSp := telemetry.StartSpanAt(ctx, scanStart, "engine.scan")
	resp := &Response{
		Formula:     raw,
		Valid:       ans.First < 0,
		TruePoints:  ans.True,
		TotalPoints: shape.Points,
		System: SystemSummary{
			Mode: key.Mode.String(), N: key.N, T: key.T,
			Horizon: key.Horizon, Limit: key.Limit,
			Runs: shape.Runs, Points: shape.Points,
			Origin: sysOrigin.String(),
		},
		ResultOrigin: resOrigin.String(),
	}
	if w := ans.Witness; w != nil {
		resp.Counterexample = &Counterexample{
			Run: w.Run, Time: w.Time, Config: w.Config, Pattern: w.Pattern,
			Point: ans.First,
		}
	}
	end := time.Now()
	last = end
	scanSp.EndAt(end)
	// The elapsed clock stops after the scan, so counterexample
	// extraction is part of the latency it reports.
	resp.ElapsedMS = msBetween(start, end)
	resp.Provenance = &Provenance{
		TraceID: telemetry.TraceIDFromContext(ctx),
		Key:     slug,
		Stages: StageTimings{
			LoadMS: msBetween(loadStart, evalStart),
			EvalMS: msBetween(evalStart, scanStart),
			ScanMS: msBetween(scanStart, end),
		},
		SystemOrigin: sysOrigin.String(),
		ResultOrigin: resOrigin.String(),
		Parallelism:  par,
		Eval:         evStats,
	}
	status = "ok"
	return resp, nil
}
