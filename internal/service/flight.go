package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// QueryRecord is one query's flight-recorder row: enough to identify
// the request (trace ID, formula, key), place it in time, and explain
// where its latency went. Status is empty while the query is still in
// flight.
type QueryRecord struct {
	TraceID   string       `json:"trace_id"`
	Formula   string       `json:"formula"`
	Key       string       `json:"key"`
	Status    string       `json:"status,omitempty"`
	StartedAt time.Time    `json:"started_at"`
	ElapsedMS float64      `json:"elapsed_ms,omitempty"`
	Stages    StageTimings `json:"stages"`
	Valid     *bool        `json:"valid,omitempty"`
}

// incidentMinGap rate-limits ring dumps: at most one file per reason
// per gap, so a shed storm produces one incident, not thousands.
const incidentMinGap = 30 * time.Second

// flightRecorder keeps the daemon's recent query history: a map of
// in-flight queries, a fixed ring of completed ones, an optional
// slow-query JSONL appender, and an optional incident dumper that
// snapshots the telemetry ring when something goes wrong.
type flightRecorder struct {
	mu       sync.Mutex
	seq      uint64
	inflight map[uint64]*QueryRecord
	recent   []QueryRecord
	next     int
	full     bool

	slowThreshold time.Duration
	slow          io.Writer

	incidentDir string
	lastDump    map[string]time.Time
}

func newFlightRecorder(recent int) *flightRecorder {
	if recent <= 0 {
		recent = 64
	}
	return &flightRecorder{
		inflight: make(map[uint64]*QueryRecord),
		recent:   make([]QueryRecord, recent),
		lastDump: make(map[string]time.Time),
	}
}

// begin registers an in-flight query and returns its handle.
func (fr *flightRecorder) begin(rec QueryRecord) uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.seq++
	id := fr.seq
	fr.inflight[id] = &rec
	return id
}

// finish completes a query: moves it from the in-flight map into the
// recent ring and, when it ran at least the slow threshold, appends it
// to the slow-query log.
func (fr *flightRecorder) finish(id uint64, status string, elapsed time.Duration, stages StageTimings, valid *bool) {
	fr.mu.Lock()
	rec, ok := fr.inflight[id]
	if !ok {
		fr.mu.Unlock()
		return
	}
	delete(fr.inflight, id)
	rec.Status = status
	rec.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	rec.Stages = stages
	rec.Valid = valid
	fr.recent[fr.next] = *rec
	fr.next++
	if fr.next == len(fr.recent) {
		fr.next, fr.full = 0, true
	}
	slow := fr.slow
	isSlow := slow != nil && elapsed >= fr.slowThreshold
	fr.mu.Unlock()

	if isSlow {
		line, err := json.Marshal(rec)
		if err == nil {
			fr.mu.Lock()
			slow.Write(append(line, '\n')) //nolint:errcheck // diagnostics must not fail the query
			fr.mu.Unlock()
		}
		telemetry.Emit("service.slow_query",
			telemetry.L("trace", rec.TraceID), telemetry.L("key", rec.Key))
	}
}

// snapshot returns the in-flight queries (oldest first) and the
// completed ring (oldest first).
func (fr *flightRecorder) snapshot() (inflight, recent []QueryRecord) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	ids := make([]uint64, 0, len(fr.inflight))
	for id := range fr.inflight {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		inflight = append(inflight, *fr.inflight[id])
	}
	if fr.full {
		recent = append(recent, fr.recent[fr.next:]...)
	}
	recent = append(recent, fr.recent[:fr.next]...)
	// Drop never-filled zero slots from a ring that hasn't wrapped.
	out := recent[:0:0]
	for _, r := range recent {
		if r.TraceID != "" || r.Formula != "" {
			out = append(out, r)
		}
	}
	return inflight, out
}

// incident dumps the telemetry retention ring plus the recent-query
// history to a JSONL file in the incident directory, rate-limited per
// reason. It is the flight recorder's crash camera: shed storms,
// drains, and quarantines each leave a file an operator can replay.
func (fr *flightRecorder) incident(reason string, detail string) {
	fr.mu.Lock()
	if fr.incidentDir == "" {
		fr.mu.Unlock()
		return
	}
	now := time.Now()
	if last, ok := fr.lastDump[reason]; ok && now.Sub(last) < incidentMinGap {
		fr.mu.Unlock()
		return
	}
	fr.lastDump[reason] = now
	dir := fr.incidentDir
	fr.mu.Unlock()

	inflight, recent := fr.snapshot()
	events := telemetry.RingEvents()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("incident-%s-%d.jsonl", reason, now.UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.Encode(map[string]any{ //nolint:errcheck // best-effort diagnostics
		"kind": "incident", "reason": reason, "detail": detail,
		"at":       now.UTC().Format(time.RFC3339Nano),
		"inflight": len(inflight), "recent": len(recent), "ring_events": len(events),
	})
	for _, rec := range append(inflight, recent...) {
		enc.Encode(map[string]any{"kind": "query", "query": rec}) //nolint:errcheck
	}
	for _, ev := range events {
		enc.Encode(map[string]any{"kind": "trace", "event": ev}) //nolint:errcheck
	}
	telemetry.Emit("service.incident_dump",
		telemetry.L("reason", reason), telemetry.L("file", filepath.Base(path)))
}

// ObservabilityConfig wires the server's flight recorder: how many
// completed queries to retain for /debug/queries, where (and above
// what latency) to log slow queries, and where to drop incident dumps.
// The zero value keeps the in-memory recorder only.
type ObservabilityConfig struct {
	// Recent is the completed-query ring capacity; 0 = 64.
	Recent int
	// SlowLogPath appends threshold-exceeding queries as JSONL;
	// "" disables the slow-query log.
	SlowLogPath string
	// SlowThreshold is the slow-query latency gate; 0 = 250ms.
	SlowThreshold time.Duration
	// IncidentDir receives ring dumps on shed/drain/quarantine events;
	// "" disables them.
	IncidentDir string
}

// SetObservability configures the flight recorder. Call before
// serving. It also hooks the store's quarantine path so corruption
// triggers an incident dump.
func (s *Server) SetObservability(cfg ObservabilityConfig) error {
	fr := newFlightRecorder(cfg.Recent)
	fr.slowThreshold = cfg.SlowThreshold
	if fr.slowThreshold <= 0 {
		fr.slowThreshold = 250 * time.Millisecond
	}
	if cfg.SlowLogPath != "" {
		f, err := os.OpenFile(cfg.SlowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("slow-query log: %w", err)
		}
		fr.slow = f
	}
	fr.incidentDir = cfg.IncidentDir
	s.fr = fr
	s.engine.Store().SetQuarantineHook(func(path string) {
		fr.incident("quarantine", filepath.Base(path))
	})
	return nil
}
