package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentHammering drives counters from many goroutines (run
// under -race in CI) and checks the totals are exact: instrumentation
// must never lose an increment.
func TestConcurrentHammering(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total")
	cl := reg.Counter("hammer_total", L("shard", "a"))

	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cl.Add(2)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := cl.Value(); got != 2*workers*perWorker {
		t.Errorf("labeled counter = %d, want %d", got, 2*workers*perWorker)
	}
}

// TestHandleIdentity checks that the same (name, labels) yields the
// same handle regardless of label order, and different labels don't.
func TestHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", L("k1", "v1"), L("k2", "v2"))
	b := reg.Counter("x_total", L("k2", "v2"), L("k1", "v1"))
	if a != b {
		t.Error("label order changed series identity")
	}
	c := reg.Counter("x_total", L("k1", "v1"))
	if a == c {
		t.Error("different label sets shared a handle")
	}
}

// TestSnapshotDeterminism takes repeated snapshots of a fixed registry
// and requires byte-identical renderings: snapshot order must not
// depend on map iteration.
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		for i := 0; i < 20; i++ {
			reg.Counter(fmt.Sprintf("c%02d_total", i%7), L("shard", fmt.Sprintf("%d", i))).Add(uint64(i))
		}
		return reg
	}
	reg := build()
	var first bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := reg.Snapshot().WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("snapshot %d differs:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
	// A freshly built identical registry renders identically too.
	var rebuilt bytes.Buffer
	if err := build().Snapshot().WritePrometheus(&rebuilt); err != nil {
		t.Fatal(err)
	}
	if rebuilt.String() != first.String() {
		t.Fatalf("rebuilt registry renders differently:\n%s\nvs\n%s", rebuilt.String(), first.String())
	}
}

// TestPrometheusGolden pins the exact text exposition for a small
// registry: TYPE lines once per name, label sorting and quoting.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("eba_demo_messages_total", L("fate", "delivered")).Add(3)
	reg.Counter("eba_demo_messages_total", L("fate", "omitted")).Add(1)
	reg.Counter("eba_demo_runs_total").Add(2)
	reg.Counter("eba_demo_frames_total", L("link", `0->1`), L("fate", "sent")).Add(5)

	const want = `# TYPE eba_demo_frames_total counter
eba_demo_frames_total{fate="sent",link="0->1"} 5
# TYPE eba_demo_messages_total counter
eba_demo_messages_total{fate="delivered"} 3
eba_demo_messages_total{fate="omitted"} 1
# TYPE eba_demo_runs_total counter
eba_demo_runs_total 2
`
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestJSONSnapshot checks the JSON exposition round-trips through
// encoding/json and carries the same values as the handles.
func TestJSONSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", L("op", "x")).Add(7)
	reg.Counter("b_total").Add(3)

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if got := snap.CounterValue("a_total", L("op", "x")); got != 7 {
		t.Errorf("counter through JSON = %g, want 7", got)
	}
	if got := snap.CounterValue("b_total"); got != 3 || len(snap.Counters) != 2 {
		t.Errorf("unlabelled counter through JSON = %g in %+v, want 3 of 2 series", got, snap.Counters)
	}
}

// TestDisabledHandlesAreNoops checks the SetEnabled gate: disabled
// handles record nothing, and re-enabling resumes.
func TestDisabledHandlesAreNoops(t *testing.T) {
	defer SetEnabled(true)
	reg := NewRegistry()
	c := reg.Counter("gated_total")

	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() = true after SetEnabled(false)")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 0 {
		t.Errorf("disabled counter recorded %d", c.Value())
	}

	SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Errorf("re-enabled counter = %d, want 1", c.Value())
	}
}
