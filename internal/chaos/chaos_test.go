package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

func TestPlanDeterministic(t *testing.T) {
	params := types.Params{N: 5, T: 2}
	for seed := int64(0); seed < 20; seed++ {
		a, err := New(failures.Omission, params, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(failures.Omission, params, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s vs %s", seed, a, b)
		}
		if a.Intended.Key() != b.Intended.Key() {
			t.Fatalf("seed %d: intended patterns differ", seed)
		}
		for s := 0; s < params.N; s++ {
			for d := 0; d < params.N; d++ {
				for r := types.Round(1); r <= 4; r++ {
					if a.Action(types.ProcID(s), r, types.ProcID(d)) != b.Action(types.ProcID(s), r, types.ProcID(d)) {
						t.Fatalf("seed %d: actions diverge at (%d,%d,%d)", seed, s, r, d)
					}
				}
			}
		}
	}
}

// Every planned pattern is legal for its mode and within the fault
// bound — the invariant that makes chaos runs replayable.
func TestPlanLegality(t *testing.T) {
	for _, mode := range []failures.Mode{failures.Crash, failures.Omission} {
		for seed := int64(0); seed < 50; seed++ {
			params := types.Params{N: 4, T: 2}
			p, err := New(mode, params, 3, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", mode, seed, err)
			}
			if p.Intended.Mode() != mode {
				t.Fatalf("%s seed %d: planned mode %v", mode, seed, p.Intended.Mode())
			}
			if got := p.Victims().Len(); got > params.T {
				t.Fatalf("%s seed %d: %d victims > t=%d", mode, seed, got, params.T)
			}
			// Faults only on victim senders.
			for s := 0; s < params.N; s++ {
				sender := types.ProcID(s)
				for d := 0; d < params.N; d++ {
					for r := types.Round(1); r <= 3; r++ {
						a := p.Action(sender, r, types.ProcID(d))
						if a.Mech != None && !p.Victims().Contains(sender) {
							t.Fatalf("%s seed %d: fault on non-victim %d", mode, seed, sender)
						}
					}
				}
			}
		}
	}
}

// Crash mode admits only the mechanisms that preserve crash shape.
func TestCrashMechanismRestriction(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	for _, m := range []Mechanism{Delay, Truncate, Partition} {
		if _, err := New(failures.Crash, params, 3, 1, m); err == nil {
			t.Fatalf("crash mode accepted %v", m)
		}
	}
	for _, m := range []Mechanism{Drop, Kill} {
		if _, err := New(failures.Crash, params, 3, 1, m); err != nil {
			t.Fatalf("crash mode rejected %v: %v", m, err)
		}
	}
	// Kill-realized crashes register a silencing round for the victim.
	for seed := int64(0); seed < 64; seed++ {
		p, err := New(failures.Crash, params, 3, seed, Kill)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range p.Victims().Members() {
			k, ok := p.SilencedAfter(v)
			// The first omission is in the silencing round k (partial
			// delivery) or k+1 (full delivery at k, then silence).
			if first, visible := p.Intended.FirstOmission(v); visible {
				if !ok || first < k || first > k+1 {
					t.Fatalf("seed %d: victim %d silenced at %d (ok=%v), first omission %d", seed, v, k, ok, first)
				}
				return // found a visible kill-crash; invariant held
			}
		}
	}
	t.Fatal("no seed in [0,64) produced a visible kill-crash")
}

func TestNewRejectsBadInputs(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	if _, err := New(failures.Mode(99), params, 3, 1); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := New(failures.Crash, params, 0, 1); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := New(failures.Omission, params, 3, 1, None); err == nil {
		t.Fatal("None accepted as injectable mechanism")
	}
	if _, err := New(failures.Crash, types.Params{N: 1, T: 0}, 3, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestParseMechanism(t *testing.T) {
	for _, m := range []Mechanism{Drop, Delay, Truncate, Kill, Partition} {
		got, err := ParseMechanism(m.String())
		if err != nil || got != m {
			t.Fatalf("%v -> %v, %v", m, got, err)
		}
	}
	if got, err := ParseMechanism(" KILL "); err != nil || got != Kill {
		t.Fatalf("case/space folding: %v, %v", got, err)
	}
	if _, err := ParseMechanism("nope"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

// A nil plan is the chaos-free plan: all accessors are safe and inert.
func TestNilPlan(t *testing.T) {
	var p *Plan
	if a := p.Action(0, 1, 1); a.Mech != None || a.Dup {
		t.Fatalf("nil plan action = %+v", a)
	}
	if _, ok := p.SilencedAfter(0); ok {
		t.Fatal("nil plan silences")
	}
	if !p.Victims().Empty() {
		t.Fatal("nil plan has victims")
	}
	if len(p.Mechanisms()) != 0 {
		t.Fatal("nil plan has mechanisms")
	}
	if !strings.Contains(p.String(), "no faults") {
		t.Fatalf("nil plan string: %q", p.String())
	}
}

func TestZeroFaultBound(t *testing.T) {
	p, err := New(failures.Omission, types.Params{N: 3, T: 0}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Victims().Empty() {
		t.Fatalf("t=0 plan has victims %s", p.Victims())
	}
}

// TestDirectedPlansPinned holds the omission and receiving-omission
// planners, which draw the same schedule onto outbound and inbound
// links, to what they planned for seeds 1–200: the SHA-256 of each
// plan's summary, intended pattern and per-frame actions.
func TestDirectedPlansPinned(t *testing.T) {
	params := types.Params{N: 5, T: 2}
	const h = 3
	for _, tc := range []struct {
		mode failures.Mode
		want string
	}{
		{failures.Omission, "290e32f83676d0379eae692293834fad5d0813e4bf679bdb416182823840ddc4"},
		{failures.ReceivingOmission, "c816ec3f8eb7c383d41d8281119c018a4b626e89d380984d136dff84ac5fe7b6"},
	} {
		sum := sha256.New()
		for seed := int64(1); seed <= 200; seed++ {
			p, err := New(tc.mode, params, h, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.mode, seed, err)
			}
			fmt.Fprintf(sum, "%s\n%s\n", p, p.Intended.Key())
			for s := 0; s < params.N; s++ {
				for d := 0; d < params.N; d++ {
					for r := types.Round(1); r <= h; r++ {
						fmt.Fprintf(sum, "%v,", p.Action(types.ProcID(s), r, types.ProcID(d)))
					}
				}
			}
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
			t.Errorf("%s: plans digest %s, want %s", tc.mode, got, tc.want)
		}
	}
}
