package telemetry

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-capacity ring buffer of recent trace events — the
// in-memory retention layer that lets a daemon answer "what did that
// query do" after the fact without a trace file. Old events are
// overwritten by new ones; Add never blocks and never allocates beyond
// the initial buffer. Safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seen uint64 // total events ever added, for drop accounting
}

// NewRing allocates a ring retaining the last n events (n is clamped
// to at least 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Add records an event, overwriting the oldest once the ring is full.
func (r *Ring) Add(ev Event) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	r.seen++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// TraceEvents returns the retained events carrying the given trace ID,
// oldest first.
func (r *Ring) TraceEvents(id string) []Event {
	if id == "" {
		return nil
	}
	var out []Event
	for _, ev := range r.Events() {
		if ev.Trace == id {
			out = append(out, ev)
		}
	}
	return out
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Seen returns the total number of events ever added — with Cap, the
// drop accounting for flight-recorder dumps (anything beyond Cap has
// been overwritten).
func (r *Ring) Seen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// defaultRing is the process-wide retention ring fed by the default
// dispatch path (StartSpan, Emit and EmitIn), alongside
// whatever JSONL writer is installed. nil = no retention.
var defaultRing atomic.Pointer[Ring]

// SetRing installs a default ring retaining the last n events and
// returns it; n <= 0 uninstalls retention and returns nil. The
// returned ring keeps working (for reads) after being replaced.
func SetRing(n int) *Ring {
	if n <= 0 {
		defaultRing.Store(nil)
		return nil
	}
	r := NewRing(n)
	defaultRing.Store(r)
	return r
}

// DefaultRing returns the installed retention ring, or nil.
func DefaultRing() *Ring { return defaultRing.Load() }

// RingEvents returns the default ring's retained events, oldest first
// (nil when no ring is installed).
func RingEvents() []Event {
	if r := defaultRing.Load(); r != nil {
		return r.Events()
	}
	return nil
}

// TraceEvents returns the default ring's retained events for one trace
// ID, oldest first (nil when no ring is installed).
func TraceEvents(id string) []Event {
	if r := defaultRing.Load(); r != nil {
		return r.TraceEvents(id)
	}
	return nil
}
