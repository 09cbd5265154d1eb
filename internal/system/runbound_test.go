package system_test

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/bench"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// TestRunBoundAdmitsBenchmarkKeys: every key a benchmark workload
// touches, as the service resolves it, stays inside the builder's
// bounds; the largest, omission n=4 t=2 h=2, has 397,328 runs.
func TestRunBoundAdmitsBenchmarkKeys(t *testing.T) {
	st, err := store.Open("", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := service.NewEngine(st, 0)
	for _, k := range bench.AllKeys {
		key, _, err := e.Resolve(service.Request{Formula: "E0", Mode: k.Mode, N: k.N, T: k.T, Horizon: k.H})
		if err != nil {
			t.Fatalf("%s: %v", k.Slug(), err)
		}
		if _, err := system.EnumPatterns(types.Params{N: key.N, T: key.T}, key.Mode, key.Horizon, key.Limit); err != nil {
			t.Errorf("%s refused: %v", k.Slug(), err)
		}
		if k.Slug() == "omission-n4-t2-h2" {
			if patterns, _, err := failures.Count(key.Mode, k.N, k.T, k.H, 0); err != nil || patterns<<k.N != 397_328 {
				t.Errorf("%s: %d patterns (%v), want 397,328 runs", k.Slug(), patterns, err)
			}
		}
	}
}
