package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, as the traced pass records it:
// the benchmark's own wrapper around a public function of the package
// the name starts with ("system.build" belongs to layer "system").
// Parent is the ID of the span that caused it, or 0 for a root.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder keeps spans in memory until the pass ends. A nil *Recorder
// records nothing and costs a nil check, which is how the untraced
// reference pipeline runs the same code.
type Recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recording for one workload.
func NewRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, epoch: time.Now()}
}

// Start opens a span under parent (0 = root) and returns its ID.
func (r *Recorder) Start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, StartNS: now})
	return id
}

// End closes the span and returns how long it was open.
func (r *Recorder) End(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.EndNS = now
	return sp.Duration()
}

// Do runs fn inside a span and returns the span's duration. With a nil
// recorder it still times fn, so callers read one clock either way.
func (r *Recorder) Do(parent int, name string, fn func(id int)) time.Duration {
	if r == nil {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	id := r.Start(parent, name)
	fn(id)
	return r.End(id)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the recording as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range r.Spans() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes maps each span ID to the span's duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (parallel work) and may stick out of the parent; only the
// union of their intervals, clipped to the parent, is subtracted.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), sp.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, sp.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[sp.ID] = sp.Duration() - time.Duration(covered)
	}
	return self
}

// Layer is the package a span name belongs to: the part before the
// first dot. Names without a dot (grouping spans such as "pipeline")
// belong to no layer and return "".
func Layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// below reports the IDs of root and every span under it.
func below(spans []Span, root int) map[int]bool {
	in := map[int]bool{root: true}
	// IDs are handed out in start order, so a parent always precedes
	// its children and one pass suffices.
	for _, sp := range spans {
		if in[sp.Parent] {
			in[sp.ID] = true
		}
	}
	return in
}

// Coverage is the share of wall time spent inside layer-named spans
// beneath the grouping spans called group: their summed layer
// self-times over their summed durations.
func Coverage(spans []Span, group string) Ratio {
	self := SelfTimes(spans)
	var layered, wall time.Duration
	for _, sp := range spans {
		if sp.Name != group {
			continue
		}
		wall += sp.Duration()
		in := below(spans, sp.ID)
		for _, c := range spans {
			if in[c.ID] && Layer(c.Name) != "" {
				layered += self[c.ID]
			}
		}
	}
	return NewRatio(layered.Seconds(), wall.Seconds(),
		"summed layer self-times / wall of the in-process "+group+" spans, s")
}

// sumNamed adds up the durations of every span with the given name.
func sumNamed(spans []Span, name string) time.Duration {
	var d time.Duration
	for _, sp := range spans {
		if sp.Name == name {
			d += sp.Duration()
		}
	}
	return d
}
