package system_test

// Edge coverage for the receiving- and general-omission enumerators,
// mirroring the sending-mode suite in parallel_edge_test.go: the new
// modes obey the exact same boundary contracts (t=0 collapses to the
// failure-free pattern, limits guard rather than truncate, invalid
// parameters fail identically on both builders, and the parallel
// builder is byte-identical to the sequential one).

import (
	"bytes"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// TestEnumerateNewModesMatchesSequentialEdges drives the receiving-
// and general-omission builders through the boundary conditions and
// asserts byte-identical snapshots against the sequential builder.
func TestEnumerateNewModesMatchesSequentialEdges(t *testing.T) {
	cases := []struct {
		name    string
		params  types.Params
		mode    failures.Mode
		horizon int
		limit   int
		workers int
	}{
		{"t0-receiving", types.Params{N: 3, T: 0}, failures.ReceivingOmission, 2, 0, 4},
		{"t0-general", types.Params{N: 3, T: 0}, failures.GeneralOmission, 2, 0, 4},
		{"workers-gt-items-receiving", types.Params{N: 2, T: 1}, failures.ReceivingOmission, 2, 0, 1000},
		{"single-worker-general", types.Params{N: 3, T: 1}, failures.GeneralOmission, 2, 0, 1},
		{"receiving-roomy-limit", types.Params{N: 3, T: 1}, failures.ReceivingOmission, 2, 1000, 8},
		{"general-roomy-limit", types.Params{N: 3, T: 1}, failures.GeneralOmission, 2, 10000, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := system.Enumerate(tc.params, tc.mode, tc.horizon, tc.limit)
			if err != nil {
				t.Fatal(err)
			}
			par, err := system.EnumerateParallel(tc.params, tc.mode, tc.horizon, tc.limit, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			a, b := encode(t, seq, tc.mode, tc.limit), encode(t, par, tc.mode, tc.limit)
			if !bytes.Equal(a, b) {
				t.Fatalf("parallel snapshot differs: %s vs %s", store.Digest(a), store.Digest(b))
			}
			if tc.params.T == 0 && seq.NumRuns() != 1<<uint(tc.params.N) {
				t.Fatalf("t=0 should enumerate only the failure-free pattern: %d runs", seq.NumRuns())
			}
		})
	}
}

// TestEnumerateNewModesLimitBoundary pins the limit semantics for both
// new modes: limit == pattern count succeeds byte-identically to
// unlimited, while any smaller limit aborts with the same error on
// both builders — a guard, never a truncation.
func TestEnumerateNewModesLimitBoundary(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	const horizon = 2
	for _, mode := range []failures.Mode{failures.ReceivingOmission, failures.GeneralOmission} {
		t.Run(mode.String(), func(t *testing.T) {
			full, err := system.Enumerate(params, mode, horizon, 0)
			if err != nil {
				t.Fatal(err)
			}
			nconfigs := 1 << uint(params.N)
			patterns := full.NumRuns() / nconfigs

			seq, err := system.Enumerate(params, mode, horizon, patterns)
			if err != nil {
				t.Fatal(err)
			}
			par, err := system.EnumerateParallel(params, mode, horizon, patterns, 6)
			if err != nil {
				t.Fatal(err)
			}
			if seq.NumRuns() != full.NumRuns() || par.NumRuns() != full.NumRuns() {
				t.Fatalf("limit==count: %d/%d runs, unlimited: %d", seq.NumRuns(), par.NumRuns(), full.NumRuns())
			}
			a, b := encode(t, seq, mode, patterns), encode(t, par, mode, patterns)
			if !bytes.Equal(a, b) {
				t.Fatal("limit==count: parallel snapshot differs from sequential")
			}

			for _, limit := range []int{patterns - 1, 1} {
				_, seqErr := system.Enumerate(params, mode, horizon, limit)
				_, parErr := system.EnumerateParallel(params, mode, horizon, limit, 6)
				if seqErr == nil || parErr == nil {
					t.Fatalf("limit %d: expected both builders to abort: seq=%v par=%v", limit, seqErr, parErr)
				}
				if seqErr.Error() != parErr.Error() {
					t.Fatalf("limit %d: error mismatch: seq=%q par=%q", limit, seqErr, parErr)
				}
			}
		})
	}
}

// TestEnumerateNewModesErrorParity: invalid parameters fail the same
// way on both builders for the new modes, exactly as for the old.
func TestEnumerateNewModesErrorParity(t *testing.T) {
	bad := []struct {
		name    string
		params  types.Params
		mode    failures.Mode
		horizon int
		limit   int
	}{
		{"n1-receiving", types.Params{N: 1, T: 0}, failures.ReceivingOmission, 2, 0},
		{"n1-general", types.Params{N: 1, T: 0}, failures.GeneralOmission, 2, 0},
		{"negative-limit-receiving", types.Params{N: 3, T: 1}, failures.ReceivingOmission, 2, -1},
		{"negative-limit-general", types.Params{N: 3, T: 1}, failures.GeneralOmission, 2, -1},
		{"t-ge-n-receiving", types.Params{N: 2, T: 2}, failures.ReceivingOmission, 2, 0},
		{"t-ge-n-general", types.Params{N: 2, T: 2}, failures.GeneralOmission, 2, 0},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, seqErr := system.Enumerate(tc.params, tc.mode, tc.horizon, tc.limit)
			_, parErr := system.EnumerateParallel(tc.params, tc.mode, tc.horizon, tc.limit, 4)
			if seqErr == nil || parErr == nil {
				t.Fatalf("expected both builders to reject: seq=%v par=%v", seqErr, parErr)
			}
			if seqErr.Error() != parErr.Error() {
				t.Fatalf("error mismatch: seq=%q par=%q", seqErr, parErr)
			}
		})
	}
}

// TestEnumerateGeneralContainsEmbeddings is the enumeration-level
// containment theorem: every sending- and receiving-omission pattern
// over the same parameters embeds (EmbedInGeneral) to a pattern the
// general enumeration produced, and the general pattern count weakly
// dominates both.
func TestEnumerateGeneralContainsEmbeddings(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	const horizon = 2
	gen, err := system.Enumerate(params, failures.GeneralOmission, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	genKeys := make(map[string]bool)
	for ri := 0; ri < gen.NumRuns(); ri++ {
		run := gen.Run(ri)
		genKeys[run.Pattern().Key()] = true
	}
	for _, mode := range []failures.Mode{failures.Crash, failures.Omission, failures.ReceivingOmission} {
		sub, err := system.Enumerate(params, mode, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sub.NumRuns() > gen.NumRuns() {
			t.Fatalf("%s system has %d runs, general only %d", mode, sub.NumRuns(), gen.NumRuns())
		}
		seen := make(map[string]bool)
		for ri := 0; ri < sub.NumRuns(); ri++ {
			run := sub.Run(ri)
			if seen[run.Pattern().Key()] {
				continue
			}
			seen[run.Pattern().Key()] = true
			emb, err := run.Pattern().EmbedInGeneral()
			if err != nil {
				t.Fatalf("%s pattern %s does not embed: %v", mode, run.Pattern(), err)
			}
			if !genKeys[emb.Key()] {
				t.Fatalf("%s pattern %s embeds to %s, absent from the general enumeration", mode, run.Pattern(), emb)
			}
		}
	}
}
