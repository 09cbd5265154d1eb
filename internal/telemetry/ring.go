package telemetry

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-capacity ring buffer of recent trace records — the
// in-memory retention layer that lets a daemon answer "what did that
// query do" after the fact without a trace file. Old records are
// overwritten by new ones; adding never blocks and never allocates
// beyond the initial buffer, and records are rendered into Events
// only when read. Safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []record
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
	return &Ring{buf: make([]record, n)}
}

// Add records an event, overwriting the oldest once the ring is full.
func (r *Ring) Add(ev Event) { r.add(&record{trace: ev.Trace, ev: &ev}) }

func (r *Ring) add(rec *record) {
	r.mu.Lock()
	r.buf[r.next] = *rec
	r.next++
	r.seen++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event { return r.render("") }

// TraceEvents returns the retained events carrying the given trace ID,
// oldest first.
func (r *Ring) TraceEvents(id string) []Event {
	if id == "" {
		return nil
	}
	return r.render(id)
}

// render copies out the retained records of one trace ("" = all),
// oldest first, and renders them outside the lock.
func (r *Ring) render(trace string) []Event {
	r.mu.Lock()
	var recs []record
	keep := func(part []record) {
		for i := range part {
			if trace == "" || part[i].trace == trace {
				recs = append(recs, part[i])
			}
		}
	}
	if r.full {
		keep(r.buf[r.next:])
	}
	keep(r.buf[:r.next])
	r.mu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	out := make([]Event, len(recs))
	for i := range recs {
		out[i] = recs[i].event()
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
