package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSpanContextPropagation walks a three-level span chain and checks the
// emitted events share one trace with correct parent links.
func TestSpanContextPropagation(t *testing.T) {
	ring := SetRing(64)
	defer SetRing(0)

	ctx := ContextWithTraceID(context.Background(), "trace-root-1")
	ctx1, root := StartSpan(ctx, "query")
	ctx2, load := StartSpan(ctx1, "load")
	load.End(L("origin", "disk"))
	_, eval := StartSpan(ctx2, "eval")
	eval.End()
	root.End(L("status", "ok"))

	evs := ring.TraceEvents("trace-root-1")
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		if ev.Trace != "trace-root-1" || ev.Span == "" {
			t.Fatalf("bad IDs on %+v", ev)
		}
		byName[ev.Name] = ev
	}
	if byName["load"].Parent != byName["query"].Span {
		t.Errorf("load's parent = %q, want query's span %q", byName["load"].Parent, byName["query"].Span)
	}
	if byName["eval"].Parent != byName["load"].Span {
		t.Errorf("eval's parent = %q, want load's span %q", byName["eval"].Parent, byName["load"].Span)
	}
	if byName["query"].Parent != "" {
		t.Errorf("root span has parent %q", byName["query"].Parent)
	}
	if byName["load"].Labels["origin"] != "disk" {
		t.Errorf("End-time label lost: %+v", byName["load"])
	}

	// Detach keeps the span context but drops cancellation.
	cctx, cancel := context.WithCancel(ctx1)
	cancel()
	d := Detach(cctx)
	if d.Err() != nil {
		t.Error("detached context inherited cancellation")
	}
	if TraceIDFromContext(d) != "trace-root-1" {
		t.Errorf("detached trace ID = %q", TraceIDFromContext(d))
	}
}

// TestStartSpanWithoutSink checks that with no sink installed spans
// are no-ops but trace-ID propagation still works.
func TestStartSpanWithoutSink(t *testing.T) {
	SetRing(0)
	SetTraceWriter(nil)
	ctx := ContextWithTraceID(context.Background(), "quiet-trace")
	ctx2, sp := StartSpan(ctx, "ghost")
	sp.End() // must not panic on nil
	if sp != nil {
		t.Error("expected nil span with no sink")
	}
	if TraceIDFromContext(ctx2) != "quiet-trace" {
		t.Errorf("trace ID lost without sink: %q", TraceIDFromContext(ctx2))
	}
	// With no trace ID at all, StartSpan must not invent one silently
	// visible to provenance consumers.
	if id := TraceIDFromContext(context.Background()); id != "" {
		t.Errorf("background context has trace ID %q", id)
	}
}

// TestValidTraceID pins the adoption filter for external IDs.
func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"a", "deadbeef", "A-b_c.9", strings.Repeat("f", 64)} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", strings.Repeat("f", 65), "sp ace", "new\nline", `quo"te`, "semi;colon"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
}

// TestRingWraparound fills a small ring past capacity and checks only
// the newest events survive, oldest first.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(Event{Type: "event", Name: fmt.Sprintf("e%d", i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("e%d", 6+i); ev.Name != want {
			t.Errorf("event %d = %s, want %s", i, ev.Name, want)
		}
	}
	if r.Seen() != 10 || r.Cap() != 4 {
		t.Errorf("seen=%d cap=%d, want 10/4", r.Seen(), r.Cap())
	}
}

// TestConcurrentContextSpans is the satellite concurrency test: N
// goroutines each emit a tree of ID-carrying spans and events through
// the default dispatch (JSONL writer + ring at once); every line of
// the JSONL stream must parse, nothing may be torn by interleaving,
// and each goroutine's trace must come back complete with intact
// parent links.
func TestConcurrentContextSpans(t *testing.T) {
	var buf lockedBuffer
	tr := SetTraceWriter(&buf)
	ring := SetRing(1 << 14)
	defer SetTraceWriter(nil)
	defer SetRing(0)

	const workers, perWorker = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			traceID := fmt.Sprintf("worker-%02d", w)
			for i := 0; i < perWorker; i++ {
				ctx := ContextWithTraceID(context.Background(), traceID)
				ctx, root := StartSpan(ctx, "root", L("i", fmt.Sprint(i)))
				ctx2, child := StartSpan(ctx, "child")
				EmitIn(ctx2, "mark")
				child.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	SetTraceWriter(nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("JSONL stream corrupted by concurrent writers: %v", err)
	}
	want := workers * perWorker * 3
	if len(events) != want {
		t.Fatalf("parsed %d events, want %d", len(events), want)
	}
	perTrace := make(map[string]int)
	spans := make(map[string]bool)
	for _, ev := range events {
		perTrace[ev.Trace]++
		if ev.Type == "span" {
			spans[ev.Span] = true
		}
	}
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("worker-%02d", w)
		if perTrace[id] != perWorker*3 {
			t.Errorf("trace %s has %d events, want %d", id, perTrace[id], perWorker*3)
		}
	}
	for _, ev := range events {
		if ev.Parent != "" && !spans[ev.Parent] {
			t.Fatalf("event %s/%s has dangling parent %s", ev.Trace, ev.Name, ev.Parent)
		}
	}
	// The ring saw the same stream.
	if got := len(ring.TraceEvents("worker-00")); got != perWorker*3 {
		t.Errorf("ring has %d events for worker-00, want %d", got, perWorker*3)
	}
}

// TestReadEventsLineNumbers pins the satellite fix: with blank lines
// preceding a malformed one, the error must report the file's real
// line number, not the count of parsed events.
func TestReadEventsLineNumbers(t *testing.T) {
	in := `{"type":"event","name":"a","t_ns":1}` + "\n\n\n" + `{"type":"event","name":"b","t_ns":2}` + "\n\nnot json\n"
	_, err := ReadEvents(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 6") {
		t.Errorf("error reports the wrong line: %v (want line 6)", err)
	}
}

// TestReadEventsNearBufferLimit exercises lines around the parser's
// 16 MiB scanner ceiling, written by the default JSONL writer: a line
// just under it parses, one beyond it must surface a scanner error
// rather than a panic or silent loss.
func TestReadEventsNearBufferLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates tens of MB; skipped in -short")
	}
	const limit = 16 * 1024 * 1024
	emitted := func(payload int) []byte {
		var buf lockedBuffer
		tr := SetTraceWriter(&buf)
		defer SetTraceWriter(nil)
		Emit("big", L("blob", strings.Repeat("x", payload)))
		Emit("after")
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Just under the ceiling: must parse, content intact.
	under := emitted(limit - 4096)
	if first := bytes.IndexByte(under, '\n'); first >= limit {
		t.Fatalf("test line is %d bytes, not under the %d limit", first, limit)
	}
	events, err := ReadEvents(bytes.NewReader(under))
	if err != nil {
		t.Fatalf("near-limit line rejected: %v", err)
	}
	if len(events) != 2 || len(events[0].Labels["blob"]) != limit-4096 || events[1].Name != "after" {
		t.Fatalf("near-limit round-trip mangled: %d events", len(events))
	}

	// Just over: the scanner must report token-too-long, not panic.
	if _, err := ReadEvents(bytes.NewReader(emitted(limit + 4096))); err == nil {
		t.Fatal("line beyond the scanner buffer accepted")
	}
}

// TestIDFormats pins the minted ID formats: 32-char trace IDs and
// 16-char span IDs of lowercase hex, both acceptable as external
// trace IDs.
func TestIDFormats(t *testing.T) {
	lowerHex := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return false
			}
		}
		return true
	}
	seen := map[string]bool{}
	for i := 0; i < 256; i++ {
		for _, c := range []struct {
			id   string
			want int
		}{{NewTraceID(), 32}, {newSpanID(), 16}} {
			if len(c.id) != c.want || !lowerHex(c.id) || !ValidTraceID(c.id) {
				t.Fatalf("minted ID %q: want %d lowercase hex chars accepted by ValidTraceID", c.id, c.want)
			}
			if seen[c.id] {
				t.Fatalf("minted ID %q twice", c.id)
			}
			seen[c.id] = true
		}
	}
	b := make([]byte, 16)
	putHex64(b, 0x0123456789abcdef)
	if string(b) != "0123456789abcdef" {
		t.Fatalf("putHex64 = %q", b)
	}
	putHex64(b, 0xa)
	if string(b) != "000000000000000a" {
		t.Fatalf("putHex64 pads to %q", b)
	}
}

// TestDuplicateLabelLastWins pins the label rule of spans and events:
// labels are a map, and on a duplicate key the last label given wins,
// End-time labels after start-time ones.
func TestDuplicateLabelLastWins(t *testing.T) {
	ring := SetRing(16)
	defer SetRing(0)
	ctx := ContextWithTraceID(context.Background(), "dup-labels")
	_, sp := StartSpan(ctx, "span", L("k", "start"), L("a", "1"), L("k", "start2"))
	sp.End(L("k", "end1"), L("k", "end2"))
	EmitIn(ctx, "event", L("k", "first"), L("k", "last"))
	Emit("plain", L("k", "first"), L("b", "2"), L("k", "last"))

	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, want := range []map[string]string{
		{"k": "end2", "a": "1"},
		{"k": "last"},
		{"k": "last", "b": "2"},
	} {
		if fmt.Sprint(evs[i].Labels) != fmt.Sprint(want) {
			t.Errorf("%s labels = %v, want %v", evs[i].Name, evs[i].Labels, want)
		}
	}
}

// TestSpanAllocs pins the price of a retained span: with a ring
// installed, StartSpan under a traced context and End with one label
// allocate once — the span, which is also its children's context. The
// record goes into the ring raw; nothing is formatted until read.
func TestSpanAllocs(t *testing.T) {
	old := DefaultRing()
	defer defaultRing.Store(old)
	SetRing(1024)
	ctx := ContextWithTraceID(context.Background(), "alloc-trace")
	got := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "span")
		sp.End(L("k", "v"))
	})
	if got != 1 {
		t.Fatalf("StartSpan + End allocates %.1f times, want 1", got)
	}
	evs := DefaultRing().TraceEvents("alloc-trace")
	if len(evs) == 0 || evs[0].Name != "span" || evs[0].Labels["k"] != "v" {
		t.Fatalf("retained events %+v", evs)
	}
}

// BenchmarkSpan prices one retained span: StartSpan under a traced
// context, then End with one label (run with -benchmem).
func BenchmarkSpan(b *testing.B) {
	old := DefaultRing()
	defer defaultRing.Store(old)
	SetRing(4096)
	ctx := ContextWithTraceID(context.Background(), "bench-trace")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "span")
		sp.End(L("k", "v"))
	}
}
