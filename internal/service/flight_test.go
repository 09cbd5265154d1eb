package service

import (
	"bytes"
	"testing"
	"time"
)

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
		fr := &flightRecorder{slowThreshold: tc.threshold, slow: &log}
		if fr.isSlow(tc.elapsed) {
			fr.logSlow(QueryRecord{TraceID: "t", Formula: "E0", Status: "ok"}, tc.elapsed)
		}
		if got := log.Len() > 0; got != tc.slow {
			t.Errorf("threshold %v, elapsed %v: logged %v, want %v", tc.threshold, tc.elapsed, got, tc.slow)
		}
	}
}
