// Package telemetry is the repository's zero-dependency observability
// layer: a metrics registry (atomic counters with Prometheus-text and
// JSON exposition), a lightweight span tracer that writes a JSONL
// event stream alongside a run, and the flag/HTTP glue the binaries
// share (-metrics, -tracefile, -pprof). It imports nothing but the
// standard library and none of the repository's internal packages, so
// every layer — from the knowledge checker to the wire — can
// instrument itself without import cycles.
//
// Metric naming follows the Prometheus convention
// eba_<layer>_<quantity>_total: the layer is the instrumented package
// (knowledge, views, system, store, service, net). Series identity is
// the metric name plus its label set; handles for the same series are
// shared, so package-level instrumentation sites can cache them.
//
// Instrumentation is globally gated: SetEnabled(false) turns every
// handle into a no-op (and, at call sites that check Enabled, skips
// span preparation), which is how the overhead benchmark measures the
// instrumented-vs-uninstrumented delta.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value pair baked into a metric's identity.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// enabled gates every metric handle and the span preparation at
// instrumentation sites. Default: on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns instrumentation on or off process-wide. Disabled
// handles are no-ops; already-recorded values are kept.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether instrumentation is on. Call sites use it to
// skip expensive preparation (label formatting) when off.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// seriesKey is the canonical identity of one series: name plus the
// sorted label set.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range sortedLabels(labels) {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

type counterSeries struct {
	name   string
	labels []Label
	c      *Counter
}

// Registry holds metric series. The zero value is not usable; use
// NewRegistry or the process-wide Default registry. Registration takes
// a mutex; the returned handles are lock-free, so instrumentation
// sites should cache them.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterSeries
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*counterSeries)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented layer
// records into.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for the series, creating it at zero on
// first use. The same (name, labels) always yields the same handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.counters[key]; ok {
		return s.c
	}
	s := &counterSeries{name: name, labels: sortedLabels(labels), c: &Counter{}}
	r.counters[key] = s
	return s.c
}

// MetricPoint is one counter value in a snapshot.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Snapshot is a consistent-enough, deterministic rendering of a
// registry: series sorted by name then label set. (Counters are read
// one atomic at a time, so a snapshot taken mid-run is not a single
// instant — each individual value is exact.)
type Snapshot struct {
	Counters []MetricPoint `json:"counters"`
}

// labelMap builds an event's or a snapshot's label map from label
// groups in order; on a duplicate key the last label wins.
func labelMap(groups ...[]Label) map[string]string {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for _, g := range groups {
		for _, l := range g {
			m[l.Key] = l.Value
		}
	}
	return m
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	for _, k := range sortedKeys(r.counters) {
		s := r.counters[k]
		snap.Counters = append(snap.Counters, MetricPoint{
			Name: s.name, Labels: labelMap(s.labels), Value: float64(s.c.Value()),
		})
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterValue looks a counter up in the snapshot; missing series read
// as zero.
func (s *Snapshot) CounterValue(name string, labels ...Label) float64 {
	want := labelMap(labels)
	for _, p := range s.Counters {
		if p.Name == name && mapsEqual(p.Labels, want) {
			return p.Value
		}
	}
	return 0
}

// CounterSum sums every series of the named counter across label sets.
func (s *Snapshot) CounterSum(name string) float64 {
	var sum float64
	for _, p := range s.Counters {
		if p.Name == name {
			sum += p.Value
		}
	}
	return sum
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// WriteJSON writes the snapshot as one indented JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text
// exposition format (version 0.0.4).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	lastType := ""
	typeLine := func(name, typ string) {
		if name != lastType {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
			lastType = name
		}
	}
	for _, p := range s.Counters {
		typeLine(p.Name, "counter")
		fmt.Fprintf(bw, "%s%s %s\n", p.Name, promLabels(p.Labels), promFloat(p.Value))
	}
	return bw.err
}

// promLabels renders a label map as {k="v",...}, keys sorted, or ""
// when empty.
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := sortedKeys(labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote, and newline — the three
		// characters the exposition format requires escaped.
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a counter value the Prometheus way: integers
// without a decimal point, exponent notation from 1e15 up.
func promFloat(v float64) string {
	if v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
