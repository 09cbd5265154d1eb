package bench

import (
	"bytes"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "pipeline", 0, 100),
		span(2, 1, "system.build", 10, 40),   // nested child
		span(3, 2, "views.intern", 15, 25),   // grandchild: not subtracted from 1
		span(4, 1, "knowledge.fill", 30, 60), // overlaps span 2 by 10
		span(5, 1, "knowledge.fill", 50, 55), // wholly inside span 4
		span(6, 1, "core.twostep", 90, 120),  // sticks out of the parent
		span(7, 0, "lab", 200, 300),          // separate root, no children
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (60 - 10) - (100 - 90), // union [10,60] plus clipped [90,100]
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 5,
		6: 30,
		7: 100,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// Layered self time under span 1: 20 + 10 + 30 + 5 + 30 = 95 of 100.
	if got := Coverage(spans, "pipeline"); math.Abs(got.Value-0.95) > 1e-9 {
		t.Errorf("coverage %v, want 0.95", got)
	}
	if Layer("system.build") != "system" || Layer("pipeline") != "" {
		t.Error("Layer misparses span names")
	}
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder("w")
	root := rec.Start(0, "pipeline")
	rec.Do(root, "system.build", func(id int) {
		rec.Do(id, "views.intern", func(int) {})
	})
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != spans[1].ID || spans[0].Workload != "w" {
		t.Fatalf("bad parent links: %+v", spans)
	}
	for _, sp := range spans {
		if sp.EndNS < sp.StartNS {
			t.Errorf("span %+v ends before it starts", sp)
		}
	}
	// A nil recorder is the untraced pipeline: it runs the work and
	// records nothing.
	ran := false
	(*Recorder)(nil).Do(0, "x.y", func(int) { ran = true })
	if !ran || (*Recorder)(nil).Spans() != nil {
		t.Error("nil recorder must run the function and keep no spans")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		none bool
	}{
		{n: 14, none: true}, {n: 39, none: true},
		{n: 40, p: 0.75}, {n: 100, p: 0.9}, {n: 200, p: 0.95},
		{n: 999, p: 0.95}, {n: 1000, p: 0.99}, {n: 1200, p: 0.99},
		{n: 10000, p: 0.999}, {n: 100000, p: 0.9999},
	} {
		p, ok := TailPercentile(c.n)
		if ok == c.none || p != c.p {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, !c.none)
		}
	}
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(1000-i) * time.Millisecond // unsorted on purpose
	}
	s := Summarize(lat)
	if s.N != 1000 || s.P50MS != 500.5 || s.P99MS != 990 || s.TailP != 0.99 || s.TailMS != 990 {
		t.Errorf("Summarize = %+v", s)
	}
	r := NewRatio(1, 4, "a / b, s")
	if r.Value != 0.25 || r.String() != "0.2500 (= 1 / 4, a / b, s)" {
		t.Errorf("ratio prints as %q", r)
	}
}

// TestSeedDeterminism: one seed gives byte-identical request sequences
// on all three query workloads; another seed gives other sequences
// drawn from the same population, so every request still has a golden.
func TestSeedDeterminism(t *testing.T) {
	g, err := LoadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range []Size{FullSize(RunSeconds), QuickSize()} {
		for _, w := range []string{QueryCached, QueryBatch, QueryChurn} {
			pop, err := NewPopulation(w, size)
			if err != nil {
				t.Fatal(err)
			}
			draw := func(seed int64, client int) []Request {
				if w == QueryChurn {
					return pop.Sequence(w, seed+int64(client), size.ChurnRequests)
				}
				return pop.NewStream(w, seed, client).Take(1500)
			}
			wire := func(seed int64, client int) []byte { return pop.BatchBody(draw(seed, client)) }
			if !bytes.Equal(wire(1, 0), wire(1, 0)) {
				t.Errorf("%s: seed 1 is not reproducible", w)
			}
			if bytes.Equal(wire(1, 0), wire(2, 0)) || bytes.Equal(wire(1, 0), wire(1, 1)) {
				t.Errorf("%s: seed or client does not change the sequence", w)
			}
			seen := map[Request]bool{}
			for _, r := range draw(2, 0) {
				seen[r] = true
				if a := g.Answer(pop.Keys[r.Key], Formulas[r.Formula]); a.TotalPoints == 0 {
					t.Fatalf("%s: request %+v has no golden", w, r)
				}
			}
			if i == 0 && len(seen) != len(pop.All()) {
				t.Errorf("%s: the sequence reached %d of %d distinct requests", w, len(seen), len(pop.All()))
			}
		}
	}
}

func TestChurnModel(t *testing.T) {
	m := NewChurnModel(2)
	steps := []struct {
		r    Request
		want Origins
	}{
		{Request{0, 0}, Origins{"disk", "enumerated"}},
		{Request{0, 0}, Origins{"memory", "memory"}},
		{Request{1, 0}, Origins{"disk", "enumerated"}},
		{Request{0, 1}, Origins{"memory", "enumerated"}}, // 0 becomes most recent
		{Request{2, 0}, Origins{"disk", "enumerated"}},   // evicts 1
		{Request{1, 0}, Origins{"disk", "disk"}},         // evicts 0; table was written
		{Request{0, 0}, Origins{"disk", "disk"}},         // memo died with the entry
	}
	for i, s := range steps {
		if got := m.Serve(s.r); got != s.want {
			t.Fatalf("step %d %+v: %+v, want %+v", i, s.r, got, s.want)
		}
	}
	if m.Restores != 5 || m.Evictions != 3 || m.Computes != 4 || m.ResultDiskHits != 2 || m.ResultMemHits != 1 {
		t.Errorf("counts %+v", *m)
	}
}

// TestTracedChurnRepeats runs query-churn's per-layer pass twice at toy
// size with one seed: the store is driven by one in-process client, so
// every exact count must repeat, and the replay must actually leave the
// memory layer. (That every workload emits every BENCHMARK.json metric
// is cmd/ebabench's smoke test, which runs all of them.)
func TestTracedChurnRepeats(t *testing.T) {
	t.Parallel()
	var runs [2]*Result
	for i := range runs {
		res, rec, err := RunTraced(QueryChurn, QuickSize(), 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || len(rec.Spans()) == 0 {
			t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
		}
		runs[i] = res
	}
	if runs[0].Metrics["store.disk_hits"].Value == 0 || runs[0].Metrics["store.evictions"].Value == 0 {
		t.Errorf("the replay never left the memory layer: %+v", runs[0].Metrics)
	}
	for _, name := range ExactCounts {
		if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
			t.Errorf("exact count %s read %v then %v", name, a, b)
		}
	}
}

// TestSegmentMetrics: requests fall into the segment whose marks bound
// their completion, each segment gets its own qps, median and CPU per
// query, and p99 waits for a pool of tailSamples requests — except in a
// window too short to hold one, which still reports a p99.
func TestSegmentMetrics(t *testing.T) {
	ms := time.Millisecond
	marks := []mark{{0, 0}, {1000 * ms, 300 * ms}, {2000 * ms, 500 * ms}, {3000 * ms, 1500 * ms}}
	var samples []sample
	add := func(from time.Duration, n int, lat time.Duration, queries int) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{end: from + time.Duration(i)*ms/2, lat: lat, queries: queries})
		}
	}
	add(2000*ms, 500, 4*ms, 2) // out of order on purpose
	add(0, 600, 1*ms, 1)
	add(1000*ms, 400, 2*ms, 1)
	add(3000*ms, 5, 9*ms, 1) // after the last mark: in no segment
	per := map[string][]float64{}
	segmentMetrics(marks, samples, per)
	want := map[string][]float64{
		"qps":                     {600, 400, 1000},
		"latency_p50_ms":          {1, 2, 4},
		"server_cpu_us_per_query": {500, 500, 1000},
		"latency_p99_ms":          {2}, // segments 0 and 1 pooled reach 1000; segment 2 is a remainder
	}
	if !reflect.DeepEqual(per, want) {
		t.Errorf("segments %v, want %v", per, want)
	}

	// A second daemon's short window appends its own values, p99 included.
	segmentMetrics([]mark{{0, 0}, {100 * ms, 10 * ms}}, []sample{{end: 50 * ms, lat: 3 * ms, queries: 1}}, per)
	if got := per["latency_p99_ms"]; len(got) != 2 || got[1] != 3 || len(per["qps"]) != 4 || per["qps"][3] != 10 {
		t.Errorf("short window: %v", per)
	}
}
