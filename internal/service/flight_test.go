package service

import (
	"bytes"
	"testing"
	"time"
)

// TestFlightSnapshotIgnoresSequence: /debug/queries costs what is in
// flight, not how many queries the daemon has ever served, and still
// lists in-flight queries oldest first.
func TestFlightSnapshotIgnoresSequence(t *testing.T) {
	fr := newFlightRecorder(4)
	fr.seq = 1_000_000
	var ids []uint64
	for _, f := range []string{"E0", "E1", "K0 E0"} {
		ids = append(ids, fr.begin(QueryRecord{TraceID: "t", Formula: f}))
	}
	fr.finish(ids[1], "ok", time.Millisecond, StageTimings{}, nil)

	inflight, recent := fr.snapshot()
	if len(inflight) != 2 || inflight[0].Formula != "E0" || inflight[1].Formula != "K0 E0" {
		t.Fatalf("in-flight = %+v, want E0 then K0 E0", inflight)
	}
	if len(recent) != 1 || recent[0].Formula != "E1" {
		t.Fatalf("recent = %+v, want E1", recent)
	}

	// Timed over many calls, so one scheduler hiccup cannot fail it:
	// a loop over every id ever issued would make 10^6 lookups a call.
	const calls = 200
	start := time.Now()
	for i := 0; i < calls; i++ {
		fr.snapshot()
	}
	if per := time.Since(start) / calls; per > 100*time.Microsecond {
		t.Fatalf("snapshot costs %v per call with seq at 10^6", per)
	}
}

// TestSlowThresholdSubMillisecond: the slow log compares durations, so
// a sub-millisecond or fractional threshold is not truncated to whole
// milliseconds.
func TestSlowThresholdSubMillisecond(t *testing.T) {
	for _, tc := range []struct {
		threshold, elapsed time.Duration
		slow               bool
	}{
		{500 * time.Microsecond, 200 * time.Microsecond, false},
		{500 * time.Microsecond, 500 * time.Microsecond, true},
		{500 * time.Microsecond, 800 * time.Microsecond, true},
		{1500 * time.Microsecond, 1200 * time.Microsecond, false},
		{1500 * time.Microsecond, 1500 * time.Microsecond, true},
		{1500 * time.Microsecond, 1900 * time.Microsecond, true},
	} {
		var log bytes.Buffer
		fr := newFlightRecorder(4)
		fr.slowThreshold, fr.slow = tc.threshold, &log
		id := fr.begin(QueryRecord{TraceID: "t", Formula: "E0"})
		fr.finish(id, "ok", tc.elapsed, StageTimings{}, nil)
		if got := log.Len() > 0; got != tc.slow {
			t.Errorf("threshold %v, elapsed %v: logged %v, want %v", tc.threshold, tc.elapsed, got, tc.slow)
		}
	}
}
