package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one pass over one workload produced. Metrics holds
// exactly the BENCHMARK.json metrics of the pass's kind (end-to-end
// with tracing off, per-layer with tracing on); Extra holds what only
// this workload has (verdict_s, restore_s, failed_share, build_s).
type Result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`

	Metrics map[string]Value  `json:"metrics"`
	Extra   map[string]Value  `json:"extra,omitempty"`
	Timings map[string]Timing `json:"timings,omitempty"`
	Ratios  map[string]Ratio  `json:"ratios,omitempty"`
	// Counts and Durations describe the work done: iterations,
	// requests, measured window and total wall time in seconds.
	Counts    map[string]int     `json:"counts,omitempty"`
	Durations map[string]float64 `json:"durations_s,omitempty"`
	// Failures describes the first few failed operations.
	Failures []string `json:"failures,omitempty"`
}

func newResult(workload string, traced bool, seed int64) *Result {
	return &Result{
		Workload: workload, Traced: traced, Seed: seed,
		Metrics: make(map[string]Value), Extra: make(map[string]Value),
		Timings: make(map[string]Timing), Ratios: make(map[string]Ratio),
		Counts: make(map[string]int), Durations: make(map[string]float64),
	}
}

// set stores a metric, taking the unit from the tables in spec.go so
// the code cannot drift from BENCHMARK.json; an unknown name panics
// (a typo in this package, not an input error).
func (r *Result) set(name string, v float64) {
	for _, m := range EndToEnd {
		if m.Name == name && !r.Traced {
			r.Metrics[name] = Value{v, m.Unit}
			return
		}
	}
	for _, m := range PerLayer {
		if m.Name == name && r.Traced {
			r.Metrics[name] = Value{v, m.Unit}
			return
		}
	}
	for _, m := range WorkloadEndToEnd[r.Workload] {
		if m.Name == name && !r.Traced {
			r.Extra[name] = Value{v, m.Unit}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not defined for workload %s (traced=%v)", name, r.Workload, r.Traced))
}

// add accumulates into a metric (per-layer sums over keys).
func (r *Result) add(name string, v float64) { r.set(name, r.Metrics[name].Value+v) }

// fail counts one failed operation and keeps the first few reasons.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish derives the verdict fields once the pass is over.
func (r *Result) finish() {
	r.Correct = r.Failed == 0
	if !r.Traced && r.Attempted > 0 {
		r.Extra["failed_share"] = Value{float64(r.Failed) / float64(r.Attempted), "ratio"}
	}
}

// driverLine is the last line of stdout the driver parses.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// DriverLine renders the one-line JSON verdict.
func (r *Result) DriverLine() (string, error) {
	b, err := json.Marshal(driverLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b), err
}

// Print writes every metric by name with its unit, then timings,
// ratios (each with its base) and the work counts.
func (r *Result) Print(w io.Writer) {
	kind := "end-to-end (tracing off, from outside the binaries)"
	if r.Traced {
		kind = "per-layer (in-process traced pass)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Workload, r.Seed, kind)
	printValues(w, r.Metrics)
	printValues(w, r.Extra)
	for _, name := range sortedKeys(r.Timings) {
		fmt.Fprintf(w, "  %-32s %s\n", name, r.Timings[name])
	}
	for _, name := range sortedKeys(r.Ratios) {
		fmt.Fprintf(w, "  %-32s %s\n", name, r.Ratios[name])
	}
	for _, name := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  %-32s %d\n", name, r.Counts[name])
	}
	for _, name := range sortedKeys(r.Durations) {
		fmt.Fprintf(w, "  %-32s %.3f s\n", name, r.Durations[name])
	}
	fmt.Fprintf(w, "  %-32s %d attempted, %d failed\n", "operations", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printValues(w io.Writer, m map[string]Value) {
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
