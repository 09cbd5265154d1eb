package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// QueryRecord is one slow-log line: enough to identify the request
// (trace ID, formula, key), place it in time, and explain where its
// latency went.
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

// flightRecorder is the daemon's disk-side diagnostics: an optional
// slow-query JSONL appender, and an optional incident dumper that
// snapshots the telemetry ring when something goes wrong. It keeps no
// query in memory; the telemetry ring is the only in-memory history.
type flightRecorder struct {
	mu sync.Mutex // serializes slow-log appends and guards lastDump

	slowThreshold time.Duration
	slow          io.Writer

	incidentDir string
	lastDump    map[string]time.Time
}

// isSlow reports whether a query that ran for elapsed belongs in the
// slow log, so a caller builds its record only when it does.
func (fr *flightRecorder) isSlow(elapsed time.Duration) bool {
	return fr.slow != nil && elapsed >= fr.slowThreshold
}

// logSlow appends rec, which ran for elapsed, to the slow-query log.
func (fr *flightRecorder) logSlow(rec QueryRecord, elapsed time.Duration) {
	rec.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	line, err := json.Marshal(rec)
	if err == nil {
		fr.mu.Lock()
		fr.slow.Write(append(line, '\n')) //nolint:errcheck // diagnostics must not fail the query
		fr.mu.Unlock()
	}
	telemetry.Emit("service.slow_query",
		telemetry.L("trace", rec.TraceID), telemetry.L("key", rec.Key))
}

// incident dumps the telemetry retention ring to a JSONL file in the
// incident directory, rate-limited per reason. It is the flight
// recorder's crash camera: shed storms, drains, and quarantines each
// leave a file an operator can replay.
func (fr *flightRecorder) incident(reason string, detail string) {
	if fr.incidentDir == "" {
		return
	}
	fr.mu.Lock()
	now := time.Now()
	if last, ok := fr.lastDump[reason]; ok && now.Sub(last) < incidentMinGap {
		fr.mu.Unlock()
		return
	}
	fr.lastDump[reason] = now
	fr.mu.Unlock()

	events := telemetry.RingEvents()
	if err := os.MkdirAll(fr.incidentDir, 0o755); err != nil {
		return
	}
	path := filepath.Join(fr.incidentDir, fmt.Sprintf("incident-%s-%d.jsonl", reason, now.UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.Encode(map[string]any{ //nolint:errcheck // best-effort diagnostics
		"kind": "incident", "reason": reason, "detail": detail,
		"at":          now.UTC().Format(time.RFC3339Nano),
		"ring_events": len(events),
	})
	for _, ev := range events {
		enc.Encode(map[string]any{"kind": "trace", "event": ev}) //nolint:errcheck
	}
	telemetry.Emit("service.incident_dump",
		telemetry.L("reason", reason), telemetry.L("file", filepath.Base(path)))
}

// ObservabilityConfig wires the server's flight recorder: where (and
// above what latency) to log slow queries, and where to drop incident
// dumps. The zero value turns both off.
type ObservabilityConfig struct {
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
	fr := &flightRecorder{
		slowThreshold: cfg.SlowThreshold,
		incidentDir:   cfg.IncidentDir,
		lastDump:      make(map[string]time.Time),
	}
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
	s.fr = fr
	s.engine.Store().SetQuarantineHook(func(path string) {
		fr.incident("quarantine", filepath.Base(path))
	})
	return nil
}
