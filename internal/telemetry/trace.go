package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one line of the JSONL trace stream: a completed span (with
// a monotonic-clock duration) or an instantaneous run event.
type Event struct {
	// T is the event time in nanoseconds since the tracer's epoch,
	// read from the monotonic clock. For spans it is the begin time.
	T int64 `json:"t_ns"`
	// Type is "span" or "event".
	Type string `json:"type"`
	// Name identifies the span or event (dotted layer.name).
	Name string `json:"name"`
	// Dur is the span duration in nanoseconds (spans only).
	Dur int64 `json:"dur_ns,omitempty"`
	// Trace, Span, and Parent carry request-scoped correlation IDs:
	// every span opened through StartSpan shares its context's trace
	// ID (or roots a fresh one), names itself with a fresh span ID, and
	// points at the span it was opened under. Events carry the trace
	// and parent of the context they were emitted in, if any.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Labels carries the span/event labels.
	Labels map[string]string `json:"labels,omitempty"`
}

// record is one span or event as End or Emit left it: IDs as numbers,
// labels as given. The retention ring stores records and renders them
// into Events only when read, so a span that is never read costs no
// formatting.
type record struct {
	t, dur       int64
	name, trace  string
	span, parent uint64 // 0 = none
	// labels are the span's start labels (or the event's labels) as
	// given; end holds End's label inline in the common one-label case.
	labels []Label
	end    [1]Label
	nend   int
	isSpan bool
	// ev is an event given to Ring.Add already rendered.
	ev *Event
}

// event renders the record: hex IDs and a label map in which the last
// label given wins, End's after StartSpan's.
func (r *record) event() Event {
	if r.ev != nil {
		return *r.ev
	}
	ev := Event{
		T: r.t, Type: "event", Name: r.name, Dur: r.dur,
		Trace: r.trace, Parent: spanHex(r.parent),
		Labels: labelMap(r.labels, r.end[:r.nend]),
	}
	if r.isSpan {
		ev.Type, ev.Span = "span", spanHex(r.span)
	}
	return ev
}

// Tracer serializes spans and events onto one writer as JSONL, one
// event per line. It is safe for concurrent use; all durations come
// from the monotonic clock.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// Err returns the first write or encoding error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *Tracer) emit(ev Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		// Labels are map[string]string and the rest are scalars, so
		// this cannot happen; record it rather than panic if it does.
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	if _, err := t.w.Write(line); err != nil && t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// The process-wide default tracer, used by every instrumentation site.
// nil (the initial state) means tracing is off and StartSpan/Emit are
// cheap no-ops unless a retention ring is installed.
var defaultTracer atomic.Pointer[Tracer]

// SetTraceWriter routes the default tracer to w; nil disables tracing.
// It returns the tracer (nil when disabled) so callers can check Err
// after the run.
func SetTraceWriter(w io.Writer) *Tracer {
	if w == nil {
		defaultTracer.Store(nil)
		return nil
	}
	t := &Tracer{w: w}
	defaultTracer.Store(t)
	return t
}

// TraceEnabled reports whether a default JSONL tracer is installed.
// Call sites use it (or TraceActive, which also covers the retention
// ring) to skip label formatting when tracing is off.
func TraceEnabled() bool { return defaultTracer.Load() != nil }

// Emit records an event on the default sinks (no-op when none is
// installed or instrumentation is disabled).
func Emit(name string, labels ...Label) {
	if !TraceActive() {
		return
	}
	dispatch(&record{t: time.Since(processEpoch).Nanoseconds(), name: name, labels: labels})
}

// ReadEvents parses a JSONL trace stream back into events — the
// round-trip used by tests and by tools that post-process run traces.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	// lineNo counts every scanned line, including the blank ones that
	// are skipped, so error messages point at the file's real line.
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("telemetry: bad trace line %d: %w", lineNo, err)
		}
		if ev.Type != "span" && ev.Type != "event" {
			return nil, fmt.Errorf("telemetry: bad trace line %d: unknown type %q", lineNo, ev.Type)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
