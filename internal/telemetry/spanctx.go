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

// spanCtx is what a span's children read from their context: the
// trace they belong to and the open span (0 when only a trace ID has
// been adopted). It wraps its parent context and answers its own key,
// so carrying it costs no allocation beyond the value itself — and an
// ActiveSpan embeds it, so opening a span costs one.
type spanCtx struct {
	context.Context
	trace string
	span  uint64
}

type spanCtxKey struct{}

func (c *spanCtx) Value(key any) any {
	if key == (spanCtxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// spanFromContext returns the span context carried by ctx, or nil.
func spanFromContext(ctx context.Context) *spanCtx {
	sc, _ := ctx.Value(spanCtxKey{}).(*spanCtx)
	return sc
}

// NewTraceID mints a 32-hex-character trace ID.
func NewTraceID() string {
	var b [32]byte
	putHex64(b[:16], rand.Uint64())
	putHex64(b[16:], rand.Uint64())
	return string(b[:])
}

// newSpan mints a span number: any nonzero uint64, since 0 means "no
// span" in a record's parent and a context's open span.
func newSpan() uint64 {
	for {
		if v := rand.Uint64(); v != 0 {
			return v
		}
	}
}

// newSpanID mints a span ID in the form it renders to: 16 lowercase
// hex characters.
func newSpanID() string { return spanHex(newSpan()) }

// spanHex renders a span number as its 16-hex-character ID, or "" for
// none.
func spanHex(v uint64) string {
	if v == 0 {
		return ""
	}
	var b [16]byte
	putHex64(b[:], v)
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

// ContextWithTraceID adopts an externally supplied trace ID (from the
// X-Eba-Trace-Id header, a CLI flag, or a test) without opening a
// span: the next StartSpan under ctx becomes the trace's root.
func ContextWithTraceID(ctx context.Context, traceID string) context.Context {
	return &spanCtx{Context: ctx, trace: traceID}
}

// TraceIDFromContext returns ctx's trace ID, or "".
func TraceIDFromContext(ctx context.Context) string {
	if sc := spanFromContext(ctx); sc != nil {
		return sc.trace
	}
	return ""
}

// Detach returns a fresh background context carrying only ctx's span
// context — for work that must outlive the request's cancellation
// (the engine's uncancelable core) while staying in its trace.
func Detach(ctx context.Context) context.Context {
	if sc := spanFromContext(ctx); sc != nil {
		return &spanCtx{Context: context.Background(), trace: sc.trace, span: sc.span}
	}
	return context.Background()
}

// TraceActive reports whether span emission has somewhere to go: the
// instrumentation gate is on and a JSONL writer or retention ring is
// installed. Call sites use it to skip expensive label formatting.
func TraceActive() bool {
	return enabled.Load() && (defaultTracer.Load() != nil || defaultRing.Load() != nil)
}

// dispatch routes one record to every installed default sink: the
// JSONL tracer, which renders it now, and the retention ring, which
// keeps it raw until read.
func dispatch(rec *record) {
	if t := defaultTracer.Load(); t != nil {
		t.emit(rec.event())
	}
	if r := defaultRing.Load(); r != nil {
		r.add(rec)
	}
}

// ActiveSpan is one in-flight ID-carrying span opened by StartSpan.
// End on a nil ActiveSpan is a no-op, so call sites need no gating.
type ActiveSpan struct {
	// ctx is the context StartSpan returns: its children's parent.
	ctx    spanCtx
	parent uint64
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
	if !TraceActive() {
		return ctx, nil
	}
	return startSpan(ctx, time.Now(), name, labels)
}

// StartSpanAt is StartSpan with a begin time the caller already read,
// so one clock reading can serve both a span and a stopwatch.
func StartSpanAt(ctx context.Context, at time.Time, name string, labels ...Label) (context.Context, *ActiveSpan) {
	if !TraceActive() {
		return ctx, nil
	}
	return startSpan(ctx, at, name, labels)
}

func startSpan(ctx context.Context, at time.Time, name string, labels []Label) (context.Context, *ActiveSpan) {
	s := &ActiveSpan{ctx: spanCtx{Context: ctx, span: newSpan()}, name: name, labels: labels, start: at}
	if p := spanFromContext(ctx); p != nil {
		s.ctx.trace, s.parent = p.trace, p.span
	}
	if s.ctx.trace == "" {
		s.ctx.trace = NewTraceID()
	}
	return &s.ctx, s
}

// End completes the span, appending any extra labels recorded along
// the way (an origin, an iteration count), and dispatches its record.
func (s *ActiveSpan) End(extra ...Label) {
	if s == nil {
		return
	}
	s.end(time.Now(), extra)
}

// EndAt is End with an end time the caller already read.
func (s *ActiveSpan) EndAt(at time.Time, extra ...Label) {
	if s == nil {
		return
	}
	s.end(at, extra)
}

func (s *ActiveSpan) end(at time.Time, extra []Label) {
	rec := record{
		t: s.start.Sub(processEpoch).Nanoseconds(), dur: at.Sub(s.start).Nanoseconds(),
		name: s.name, trace: s.ctx.trace, span: s.ctx.span, parent: s.parent,
		labels: s.labels, isSpan: true,
	}
	if len(extra) == 1 {
		rec.end[0], rec.nend = extra[0], 1
	} else if len(extra) > 1 {
		rec.labels = append(append(make([]Label, 0, len(s.labels)+len(extra)), s.labels...), extra...)
	}
	dispatch(&rec)
}

// EmitIn records an instantaneous event correlated to ctx's trace
// (no-op when no sink is installed).
func EmitIn(ctx context.Context, name string, labels ...Label) {
	if !TraceActive() {
		return
	}
	rec := record{t: time.Since(processEpoch).Nanoseconds(), name: name, labels: labels}
	if sc := spanFromContext(ctx); sc != nil {
		rec.trace, rec.parent = sc.trace, sc.span
	}
	dispatch(&rec)
}
