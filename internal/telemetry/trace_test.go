package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestTraceRoundTrip writes spans and events concurrently through the
// default JSONL writer, parses the stream back, and requires the same
// set of events: every line valid, nothing lost or torn by
// interleaving, every span a root of its own trace.
func TestTraceRoundTrip(t *testing.T) {
	var buf lockedBuffer
	tr := SetTraceWriter(&buf)
	defer SetTraceWriter(nil)

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, sp := StartSpan(context.Background(), "work.span", L("worker", fmt.Sprint(w)), L("i", fmt.Sprint(i)))
				sp.End()
				Emit("work.event", L("worker", fmt.Sprint(w)), L("i", fmt.Sprint(i)))
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
		t.Fatal(err)
	}
	if len(events) != 2*workers*perWorker {
		t.Fatalf("parsed %d events, want %d", len(events), 2*workers*perWorker)
	}
	seen := make(map[string]int)
	for _, ev := range events {
		if ev.T < 0 {
			t.Fatalf("negative timestamp: %+v", ev)
		}
		switch ev.Type {
		case "span":
			if ev.Name != "work.span" || ev.Dur < 0 || ev.Trace == "" || ev.Span == "" || ev.Parent != "" {
				t.Fatalf("bad span: %+v", ev)
			}
		case "event":
			if ev.Name != "work.event" {
				t.Fatalf("bad event: %+v", ev)
			}
		}
		seen[ev.Type+"/"+ev.Labels["worker"]+"/"+ev.Labels["i"]]++
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			for _, typ := range []string{"span", "event"} {
				key := fmt.Sprintf("%s/%d/%d", typ, w, i)
				if seen[key] != 1 {
					t.Fatalf("%s seen %d times", key, seen[key])
				}
			}
		}
	}
}

// TestTraceSameSpans is the write → parse → same-spans round-trip on a
// deterministic single-goroutine trace of nested spans: parsed events
// must match the written ones field for field (durations and
// timestamps are whatever the clock said, so they are compared for
// presence and order only), and the nesting must survive as parent
// links within one trace.
func TestTraceSameSpans(t *testing.T) {
	var buf lockedBuffer
	tr := SetTraceWriter(&buf)
	defer SetTraceWriter(nil)
	octx, outer := StartSpan(context.Background(), "outer", L("k", "v"))
	_, inner := StartSpan(octx, "inner")
	inner.End()
	EmitIn(octx, "mark", L("round", "3"))
	outer.End()
	SetTraceWriter(nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		Type, Name string
		Labels     map[string]string
	}
	var got []shape
	for _, ev := range events {
		got = append(got, shape{ev.Type, ev.Name, ev.Labels})
	}
	want := []shape{
		{"span", "inner", nil},
		{"event", "mark", map[string]string{"round": "3"}},
		{"span", "outer", map[string]string{"k": "v"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	root := events[2]
	for _, ev := range events[:2] {
		if ev.Trace != root.Trace || ev.Parent != root.Span {
			t.Errorf("%s: trace %q parent %q, want trace %q parent %q", ev.Name, ev.Trace, ev.Parent, root.Trace, root.Span)
		}
	}
	// Monotonic ordering of begin times: inner began after outer.
	if events[0].T < events[2].T {
		t.Errorf("inner span began at %d, before outer at %d", events[0].T, events[2].T)
	}
}

// TestDefaultTracerGate checks StartSpan/Emit are no-ops without a
// sink and produce events with a JSONL writer.
func TestDefaultTracerGate(t *testing.T) {
	defer SetTraceWriter(nil)

	SetRing(0)
	SetTraceWriter(nil)
	if TraceEnabled() {
		t.Fatal("TraceEnabled with nil writer")
	}
	_, ghost := StartSpan(context.Background(), "ghost")
	ghost.End() // must not panic
	Emit("ghost")

	var buf lockedBuffer
	tr := SetTraceWriter(&buf)
	_, sp := StartSpan(context.Background(), "real", L("a", "b"))
	sp.End()
	Emit("mark")
	SetTraceWriter(nil)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Name != "real" || events[1].Name != "mark" {
		t.Fatalf("default tracer events = %+v", events)
	}
}

// TestReadEventsRejectsGarbage checks the parser reports malformed
// lines instead of silently skipping them.
func TestReadEventsRejectsGarbage(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"type\":\"span\",\"name\":\"ok\",\"t_ns\":1}\nnot json\n"))
	if err == nil {
		t.Error("malformed line accepted")
	}
	_, err = ReadEvents(strings.NewReader("{\"type\":\"wibble\",\"name\":\"x\",\"t_ns\":1}\n"))
	if err == nil {
		t.Error("unknown event type accepted")
	}
}

// lockedBuffer is a bytes.Buffer safe for concurrent writers — the
// tracer serializes writes itself, but tests also read it back.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
