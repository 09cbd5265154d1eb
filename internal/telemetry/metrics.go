// Package telemetry is the repository's zero-dependency observability
// layer: a metrics registry (atomic counters, gauges, and fixed-bucket
// histograms with Prometheus-text and JSON exposition), a lightweight
// span tracer that writes a JSONL event stream alongside a run, and
// the flag/HTTP glue the binaries share (-metrics, -tracefile,
// -pprof). It imports nothing but the standard library and none of the
// repository's internal packages, so every layer — from the knowledge
// checker to the wire — can instrument itself without import cycles.
//
// Metric naming follows the Prometheus convention
// eba_<layer>_<quantity>_<unit>: the layer is the instrumented package
// (knowledge, views, system, sim, net), counters end in _total, and
// base units are seconds. Series identity is the metric name plus its
// label set; handles for the same series are shared, so package-level
// instrumentation sites can cache them.
//
// Instrumentation is globally gated: SetEnabled(false) turns every
// handle into a no-op (and, at call sites that check Enabled, skips
// clock reads), which is how the overhead benchmark measures the
// instrumented-vs-uninstrumented checker delta.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// enabled gates every metric handle and every clock read at
// instrumentation sites. Default: on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns instrumentation on or off process-wide. Disabled
// handles are no-ops; already-recorded values are kept.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether instrumentation is on. Call sites use it to
// skip expensive preparation (clock reads, label formatting) when off.
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

// Gauge is a point-in-time value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v is larger (a running maximum, the
// right aggregate when many short-lived instances — e.g. per-process
// view interners — report into one series).
func (g *Gauge) SetMax(v float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: cumulative bucket counts over
// ascending upper bounds, with an implicit +Inf bucket, plus the sum
// and count of observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value at the cost of
// one: a size distribution over a million elements is a few hundred
// distinct sizes.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 || !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

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

type gaugeSeries struct {
	name   string
	labels []Label
	g      *Gauge
}

type histogramSeries struct {
	name   string
	labels []Label
	h      *Histogram
}

// Registry holds metric series. The zero value is not usable; use
// NewRegistry or the process-wide Default registry. Registration takes
// a mutex; the returned handles are lock-free, so instrumentation
// sites should cache them.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*counterSeries
	gauges     map[string]*gaugeSeries
	histograms map[string]*histogramSeries
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*counterSeries),
		gauges:     make(map[string]*gaugeSeries),
		histograms: make(map[string]*histogramSeries),
	}
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

// Gauge returns the gauge for the series, creating it at zero on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.gauges[key]; ok {
		return s.g
	}
	s := &gaugeSeries{name: name, labels: sortedLabels(labels), g: &Gauge{}}
	r.gauges[key] = s
	return s.g
}

// Histogram returns the histogram for the series, creating it with the
// given ascending upper bounds on first use. Later calls for the same
// series return the existing histogram regardless of bounds (first
// registration wins).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.histograms[key]; ok {
		return s.h
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.histograms[key] = &histogramSeries{name: name, labels: sortedLabels(labels), h: h}
	return h
}

// MetricPoint is one counter or gauge value in a snapshot.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// BucketCount is one histogram bucket: the count of observations at or
// below the upper bound (cumulative, Prometheus-style).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// bucketCountJSON carries the bound as a string because JSON has no
// +Inf literal.
type bucketCountJSON struct {
	UpperBound string `json:"le"`
	Count      uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketCountJSON{promFloat(b.UpperBound), b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw bucketCountJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch raw.UpperBound {
	case "+Inf":
		b.UpperBound = math.Inf(1)
	case "-Inf":
		b.UpperBound = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(raw.UpperBound, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	return nil
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Buckets []BucketCount     `json:"buckets"`
	Sum     float64           `json:"sum"`
	Count   uint64            `json:"count"`
}

// Snapshot is a consistent-enough, deterministic rendering of a
// registry: series sorted by name then label set. (Counters are read
// one atomic at a time, so a snapshot taken mid-run is not a single
// instant — each individual value is exact.)
type Snapshot struct {
	Counters   []MetricPoint    `json:"counters"`
	Gauges     []MetricPoint    `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
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
	ckeys := sortedKeys(r.counters)
	for _, k := range ckeys {
		s := r.counters[k]
		snap.Counters = append(snap.Counters, MetricPoint{
			Name: s.name, Labels: labelMap(s.labels), Value: float64(s.c.Value()),
		})
	}
	for _, k := range sortedKeys(r.gauges) {
		s := r.gauges[k]
		snap.Gauges = append(snap.Gauges, MetricPoint{
			Name: s.name, Labels: labelMap(s.labels), Value: s.g.Value(),
		})
	}
	for _, k := range sortedKeys(r.histograms) {
		s := r.histograms[k]
		hp := HistogramPoint{Name: s.name, Labels: labelMap(s.labels), Sum: s.h.Sum(), Count: s.h.Count()}
		var cum uint64
		for i, ub := range s.h.bounds {
			cum += s.h.counts[i].Load()
			hp.Buckets = append(hp.Buckets, BucketCount{UpperBound: ub, Count: cum})
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		hp.Buckets = append(hp.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
		snap.Histograms = append(snap.Histograms, hp)
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
		fmt.Fprintf(bw, "%s%s %s\n", p.Name, promLabels(p.Labels, "", 0), promFloat(p.Value))
	}
	for _, p := range s.Gauges {
		typeLine(p.Name, "gauge")
		fmt.Fprintf(bw, "%s%s %s\n", p.Name, promLabels(p.Labels, "", 0), promFloat(p.Value))
	}
	for _, h := range s.Histograms {
		typeLine(h.Name, "histogram")
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name, promLabels(h.Labels, "le", b.UpperBound), b.Count)
		}
		fmt.Fprintf(bw, "%s_sum%s %s\n", h.Name, promLabels(h.Labels, "", 0), promFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count%s %d\n", h.Name, promLabels(h.Labels, "", 0), h.Count)
	}
	return bw.err
}

// promLabels renders a label map (plus an optional le bound) as
// {k="v",...}, keys sorted, or "" when empty.
func promLabels(labels map[string]string, le string, bound float64) string {
	if len(labels) == 0 && le == "" {
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
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", le, promFloat(bound))
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a float the Prometheus way: integers without a
// decimal point, +Inf spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
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
