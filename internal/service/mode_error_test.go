package service

// Cross-layer exhaustiveness test for failure-mode dispatch: every
// layer that switches on a mode — enumeration, chaos planning, store
// keys, and the query service — must accept all of failures.Modes and
// reject anything else with the typed failures.ErrUnknownMode, so a
// future fifth mode that misses a switch arm fails loudly here.

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/chaos"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

func TestEveryModeAcceptedEverywhere(t *testing.T) {
	params := types.Params{N: 2, T: 1}
	for _, mode := range failures.Modes {
		if _, err := system.Enumerate(params, mode, 2, 0); err != nil {
			t.Fatalf("system.Enumerate(%s): %v", mode, err)
		}
		if _, err := chaos.New(mode, params, 2, 42); err != nil {
			t.Fatalf("chaos.New(%s): %v", mode, err)
		}
		key := store.Key{N: 2, T: 1, Mode: mode, Horizon: 2}
		if err := key.Validate(); err != nil {
			t.Fatalf("Key.Validate(%s): %v", mode, err)
		}
		e := NewEngine(nil, 0)
		resolved, _, err := e.Resolve(Request{Formula: "E E0", N: 2, T: 1, Mode: mode.String(), Horizon: 2})
		if err != nil {
			t.Fatalf("Resolve(%s): %v", mode, err)
		}
		if resolved.Mode != mode {
			t.Fatalf("Resolve(%s) produced key mode %s", mode, resolved.Mode)
		}
		if mode == failures.Crash {
			if resolved.Limit != 0 {
				t.Fatalf("crash key carries limit %d", resolved.Limit)
			}
		} else if resolved.Limit != DefaultOmissionLimit {
			t.Fatalf("%s key limit = %d, want default %d", mode, resolved.Limit, DefaultOmissionLimit)
		}
	}
}

func TestUnknownModeTypedEverywhere(t *testing.T) {
	params := types.Params{N: 2, T: 1}
	bad := failures.Mode(99)
	if _, err := system.Enumerate(params, bad, 2, 0); !errors.Is(err, failures.ErrUnknownMode) {
		t.Fatalf("system.Enumerate: %v; want ErrUnknownMode", err)
	}
	if _, err := chaos.New(bad, params, 2, 42); !errors.Is(err, failures.ErrUnknownMode) {
		t.Fatalf("chaos.New: %v; want ErrUnknownMode", err)
	}
	key := store.Key{N: 2, T: 1, Mode: bad, Horizon: 2}
	if err := key.Validate(); !errors.Is(err, failures.ErrUnknownMode) {
		t.Fatalf("Key.Validate: %v; want ErrUnknownMode", err)
	}
	e := NewEngine(nil, 0)
	_, _, err := e.Resolve(Request{Formula: "E E0", N: 2, T: 1, Mode: "byzantine", Horizon: 2})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Resolve: %v; want ErrBadRequest", err)
	}
	if !errors.Is(err, failures.ErrUnknownMode) {
		t.Fatalf("Resolve: %v; want the typed failures.ErrUnknownMode inside ErrBadRequest", err)
	}
}

// TestCrashKeyBoundedLikeOmission: a crash key carries no limit, yet
// one past the builder's bound of system.MaxRuns runs is refused at
// once, with the status an omission key past its limit gets.
func TestCrashKeyBoundedLikeOmission(t *testing.T) {
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 0)
	ctx := context.Background()
	_, want := e.Execute(ctx, Request{Formula: "E0", Mode: "omission", N: 4, T: 2, Horizon: 4})
	if want == nil {
		t.Fatal("omission n=4 t=2 h=4 answered; want its limit error")
	}
	start := time.Now()
	resp, err := e.Execute(ctx, Request{Formula: "E0", Mode: "crash", N: 40, T: 1})
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("crash n=40 t=1 took %v to refuse", elapsed)
	}
	const msg = "system: crash n=40 t=1 h=3 has 65970697666481 patterns × 2^40 configurations, more than 2000000 runs"
	if resp != nil || err == nil || err.Error() != msg || itemStatus(err) != itemStatus(want) {
		t.Fatalf("crash n=40 t=1: %v (status %d), want %v (status %d)", err, itemStatus(err), msg, itemStatus(want))
	}
	if key, _, err := e.Resolve(Request{Formula: "E0", Mode: "crash", N: 40, T: 1, Limit: 7}); err != nil || key.Limit != 0 {
		t.Fatalf("crash key %+v (%v): the bound must stay out of the key", key, err)
	}
}

// TestRunBound: a key whose patterns are inside their bound but whose
// runs (patterns × 2^n initial configurations) exceed system.MaxRuns
// is refused at once, with the status of a key past its pattern bound,
// in every mode, and a request's limit cannot raise the run bound.
func TestRunBound(t *testing.T) {
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, 0)
	ctx := context.Background()
	_, overLimit := e.Execute(ctx, Request{Formula: "E0", Mode: "omission", N: 4, T: 2, Horizon: 4})
	if overLimit == nil {
		t.Fatal("omission n=4 t=2 h=4 answered; want its limit error")
	}
	for _, tc := range []struct {
		req      Request
		patterns int
	}{
		{Request{Formula: "E0", Mode: "crash", N: 12, T: 1, Horizon: 3}, 73_705},
		{Request{Formula: "E0", Mode: "omission", N: 4, T: 2, Horizon: 3}, 1_574_913},
		{Request{Formula: "E0", Mode: "omission", N: 4, T: 2, Horizon: 3, Limit: 10 * DefaultOmissionLimit}, 1_574_913},
	} {
		r := tc.req
		mode, err := failures.ParseMode(r.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := failures.Count(mode, r.N, r.T, r.Horizon, 0); err != nil || got != tc.patterns {
			t.Fatalf("%+v: %d patterns (%v), want %d", r, got, err, tc.patterns)
		}
		if tc.patterns > DefaultOmissionLimit || tc.patterns<<r.N <= system.MaxRuns {
			t.Fatalf("%+v: %d patterns, %d runs: want inside the pattern bound and past the run bound", r, tc.patterns, tc.patterns<<r.N)
		}
		start := time.Now()
		resp, err := e.Execute(ctx, r)
		if elapsed := time.Since(start); elapsed >= time.Second {
			t.Fatalf("%+v took %v to refuse", r, elapsed)
		}
		if resp != nil || err == nil || itemStatus(err) != itemStatus(overLimit) {
			t.Fatalf("%+v: %v (status %d), want a refusal with status %d", r, err, itemStatus(err), itemStatus(overLimit))
		}
	}
}
