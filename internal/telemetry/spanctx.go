// Request-scoped tracing: trace/span/parent IDs carried through
// context.Context, so one query's path through the service stack
// (admission queue → store → evaluator) can be reconstructed from its
// trace ID across the JSONL sink, the retention ring, and the
// response's provenance block.
package telemetry

import (
	"context"
	"math/rand/v2"
	"time"
)

// processEpoch anchors t_ns for every event emitted through the
// default dispatch path, so spans from different layers of one process
// share a clock and can be ordered against each other.
var processEpoch = time.Now()

// SpanContext identifies the current position in a trace: which trace
// the request belongs to and which span is currently open.
type SpanContext struct {
	TraceID string
	SpanID  string
}

type spanCtxKey struct{}

// NewTraceID mints a 32-hex-character trace ID.
func NewTraceID() string {
	var b [32]byte
	putHex64(b[:16], rand.Uint64())
	putHex64(b[16:], rand.Uint64())
	return string(b[:])
}

// newSpanID mints a 16-hex-character span ID.
func newSpanID() string {
	var b [16]byte
	putHex64(b[:], rand.Uint64())
	return string(b[:])
}

// putHex64 writes v into dst[:16] as zero-padded lowercase hex.
func putHex64(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ValidTraceID reports whether s is acceptable as an externally
// supplied trace ID: 1–64 characters of [0-9a-zA-Z._-]. Anything else
// is discarded and replaced by a minted ID, so a hostile header can
// never smuggle structure into the JSONL stream.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ContextWithSpan returns ctx carrying the span context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context carried by ctx, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// ContextWithTraceID adopts an externally supplied trace ID (from the
// X-Eba-Trace-Id header, a CLI flag, or a test) without opening a
// span: the next StartSpan under ctx becomes the trace's root.
func ContextWithTraceID(ctx context.Context, traceID string) context.Context {
	return ContextWithSpan(ctx, SpanContext{TraceID: traceID})
}

// TraceIDFromContext returns ctx's trace ID, or "".
func TraceIDFromContext(ctx context.Context) string {
	sc, _ := SpanFromContext(ctx)
	return sc.TraceID
}

// Detach returns a fresh background context carrying only ctx's span
// context — for work that must outlive the request's cancellation
// (the engine's uncancelable core) while staying in its trace.
func Detach(ctx context.Context) context.Context {
	if sc, ok := SpanFromContext(ctx); ok {
		return ContextWithSpan(context.Background(), sc)
	}
	return context.Background()
}

// TraceActive reports whether span emission has somewhere to go: the
// instrumentation gate is on and a JSONL writer or retention ring is
// installed. Call sites use it to skip expensive label formatting.
func TraceActive() bool {
	return enabled.Load() && (defaultTracer.Load() != nil || defaultRing.Load() != nil)
}

// dispatch routes one event to every installed default sink: the JSONL
// tracer and the retention ring.
func dispatch(ev Event) {
	if t := defaultTracer.Load(); t != nil {
		t.emit(ev)
	}
	if r := defaultRing.Load(); r != nil {
		r.Add(ev)
	}
}

// ActiveSpan is one in-flight ID-carrying span opened by StartSpan.
// End on a nil ActiveSpan is a no-op, so call sites need no gating.
type ActiveSpan struct {
	sc     SpanContext
	parent string
	name   string
	labels []Label
	start  time.Time
}

// StartSpan opens a child span under ctx's span context (minting a
// trace ID if ctx carries none) and returns a context for the work
// inside it. When no sink is installed the span records nothing, but
// trace-ID propagation through the returned context still works, so
// provenance blocks stay populated even with tracing off.
func StartSpan(ctx context.Context, name string, labels ...Label) (context.Context, *ActiveSpan) {
	parent, _ := SpanFromContext(ctx)
	if !TraceActive() {
		return ctx, nil
	}
	sc := SpanContext{TraceID: parent.TraceID, SpanID: newSpanID()}
	if sc.TraceID == "" {
		sc.TraceID = NewTraceID()
	}
	s := &ActiveSpan{sc: sc, parent: parent.SpanID, name: name, labels: labels, start: time.Now()}
	return ContextWithSpan(ctx, sc), s
}

// Context returns the span's own span context (zero for nil spans).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// End completes the span, appending any extra labels recorded along
// the way (an origin, an iteration count), and dispatches its event.
func (s *ActiveSpan) End(extra ...Label) {
	if s == nil {
		return
	}
	dispatch(Event{
		T:      s.start.Sub(processEpoch).Nanoseconds(),
		Type:   "span",
		Name:   s.name,
		Dur:    time.Since(s.start).Nanoseconds(),
		Trace:  s.sc.TraceID,
		Span:   s.sc.SpanID,
		Parent: s.parent,
		Labels: labelMap(s.labels, extra),
	})
}

// EmitIn records an instantaneous event correlated to ctx's trace
// (no-op when no sink is installed).
func EmitIn(ctx context.Context, name string, labels ...Label) {
	if !TraceActive() {
		return
	}
	sc, _ := SpanFromContext(ctx)
	dispatch(Event{
		T:      time.Since(processEpoch).Nanoseconds(),
		Type:   "event",
		Name:   name,
		Trace:  sc.TraceID,
		Parent: sc.SpanID,
		Labels: labelMap(labels),
	})
}
