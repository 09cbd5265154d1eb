package conform

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
)

// TestScenarioDeterminism pins the generator contract: a seed (plus
// mode filter) fully determines its scenario, every failure mode is
// generated, and every scenario stays inside the size caps that keep
// exhaustive enumeration tractable.
func TestScenarioDeterminism(t *testing.T) {
	modesSeen := make(map[failures.Mode]int)
	for seed := int64(0); seed < 500; seed++ {
		a, b := NewScenario(seed), NewScenario(seed)
		if a.Desc() != b.Desc() || a.ChaosSeed != b.ChaosSeed {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, a, b)
		}
		modesSeen[a.Mode]++
		if a.N < 2 || a.N > 4 {
			t.Fatalf("seed %d: n=%d out of range", seed, a.N)
		}
		if a.T < 0 || a.T > 2 || a.T >= a.N {
			t.Fatalf("seed %d: t=%d invalid for n=%d", seed, a.T, a.N)
		}
		if a.Horizon < 2 || a.Horizon > 3 {
			t.Fatalf("seed %d: horizon=%d out of range", seed, a.Horizon)
		}
		switch a.Mode {
		case failures.Omission, failures.ReceivingOmission:
			// These caps bound (2^(n-1))^h per faulty processor.
			if a.N == 4 && (a.T > 1 || a.Horizon > 2) {
				t.Fatalf("seed %d: %s scenario too large: %+v", seed, a.Mode, a)
			}
			if a.N == 3 && a.T == 2 && a.Horizon > 2 {
				t.Fatalf("seed %d: %s scenario too large: %+v", seed, a.Mode, a)
			}
		case failures.GeneralOmission:
			// (2^(n-1)·2^(n-f))^h per faulty processor: n is capped at
			// 3 and the longer horizon allowed only at n=2.
			if a.N > 3 || a.T > 1 || (a.N == 3 && a.Horizon > 2) {
				t.Fatalf("seed %d: general scenario too large: %+v", seed, a)
			}
		}
		if err := a.Params().Validate(); err != nil {
			t.Fatalf("seed %d: invalid params: %v", seed, err)
		}
	}
	for _, m := range failures.Modes {
		if modesSeen[m] == 0 {
			t.Fatalf("500 seeds generated no %s scenario: %v", m, modesSeen)
		}
	}

	// A mode filter is part of the derivation: every scenario's mode is
	// drawn from the filter, deterministically per (seed, filter).
	filter := []failures.Mode{failures.ReceivingOmission, failures.GeneralOmission}
	for seed := int64(0); seed < 100; seed++ {
		a, b := NewScenarioIn(seed, filter), NewScenarioIn(seed, filter)
		if a.Desc() != b.Desc() {
			t.Fatalf("seed %d (filtered) not deterministic", seed)
		}
		if a.Mode != failures.ReceivingOmission && a.Mode != failures.GeneralOmission {
			t.Fatalf("seed %d: filtered scenario has mode %s", seed, a.Mode)
		}
	}
}

// TestRunPasses is the PR-gating conformance pass: a handful of
// scenarios through every pillar must produce zero violations.
func TestRunPasses(t *testing.T) {
	count := 12
	if testing.Short() {
		count = 4
	}
	res, err := Run(Options{Seed: 1, Count: count, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s/%s on %s n=%d t=%d h=%d: %s", v.Pillar, v.Law, v.Mode, v.N, v.T, v.Horizon, v.Detail)
	}
	if res.Scenarios != count || res.Truncated {
		t.Fatalf("expected %d scenarios, got %d (truncated=%v)", count, res.Scenarios, res.Truncated)
	}
	if res.Checks == 0 || res.Keys == 0 {
		t.Fatalf("no checks ran: %+v", res)
	}
}

// TestMutantsCaught proves the harness detects an injected violation
// in each pillar and emits it to the JSONL corpus with a seed that
// replays the failure. The two mode-parity mutants and the prefix
// mutant only manifest on scenarios with actual receive drops, so
// their runs are mode-filtered — exercising Options.Modes on the way.
func TestMutantsCaught(t *testing.T) {
	modeFilter := map[string][]failures.Mode{
		MutantReconstruction: {failures.ReceivingOmission},
		MutantParity:         {failures.ReceivingOmission},
		MutantPrefix:         {failures.ReceivingOmission},
	}
	for _, mutant := range Mutants {
		mutant := mutant
		t.Run(mutant, func(t *testing.T) {
			t.Parallel()
			corpus := filepath.Join(t.TempDir(), "corpus.jsonl")
			res, err := Run(Options{Seed: 7, Count: 2, CacheDir: t.TempDir(), Corpus: corpus, Mutant: mutant, Modes: modeFilter[mutant]})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("mutant %q not caught", mutant)
			}
			recs, err := ReadCorpus(corpus)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(res.Violations) {
				t.Fatalf("corpus has %d records, want %d", len(recs), len(res.Violations))
			}
			rec := recs[0]
			if rec.Pillar == "" || rec.Law == "" || rec.Detail == "" {
				t.Fatalf("incomplete corpus record: %+v", rec)
			}
			if want := "-seed"; !strings.Contains(rec.Replay, want) {
				t.Fatalf("replay hint %q missing %q", rec.Replay, want)
			}

			// The recorded seed must reproduce the violation on its own
			// (under the same mode filter, which the replay hint records).
			if len(modeFilter[mutant]) > 0 && !strings.Contains(rec.Replay, "-mode "+ModesArg(modeFilter[mutant])) {
				t.Fatalf("replay hint %q does not carry the mode filter", rec.Replay)
			}
			replay, err := Run(Options{Seed: rec.Seed, Count: 1, CacheDir: t.TempDir(), Mutant: mutant, Modes: modeFilter[mutant]})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, v := range replay.Violations {
				if v.Pillar == rec.Pillar && v.Seed == rec.Seed {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d did not reproduce a %s violation; got %+v", rec.Seed, rec.Pillar, replay.Violations)
			}
		})
	}
}

// TestBudgetTruncates pins the budget contract: once the wall-clock
// budget is spent, remaining scenarios are skipped and the result says
// so rather than silently passing on partial coverage.
func TestBudgetTruncates(t *testing.T) {
	res, err := Run(Options{Seed: 1, Count: 3, Budget: time.Nanosecond, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Skipped == 0 {
		t.Fatalf("expected truncation, got %+v", res)
	}
}

func TestUnknownMutantRejected(t *testing.T) {
	if _, err := Run(Options{Mutant: "bogus", Count: 1}); err == nil {
		t.Fatal("expected error for unknown mutant")
	}
}
