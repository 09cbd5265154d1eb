package eba_test

import (
	"testing"

	eba "github.com/eventual-agreement/eba"
)

// TestFacadeCoordination exercises the Section 7 generalization
// through the public API.
func TestFacadeCoordination(t *testing.T) {
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Crash, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := eba.NewEvaluator(sys)
	spec := eba.CoordinationSpec{
		Name: "biased",
		Phi0: eba.Exists0(),
		Phi1: eba.Not(eba.Exists0()),
	}
	if err := spec.Validate(e); err != nil {
		t.Fatal(err)
	}
	opt := eba.TwoStepSpec(e, spec, eba.NeverDecide())
	if err := eba.CheckWeakAgreement(sys, opt); err != nil {
		t.Fatal(err)
	}
	if err := eba.CheckEnabling(e, spec, opt); err != nil {
		t.Fatal(err)
	}
	if ok, reason := eba.IsOptimalSpec(e, spec, opt); !ok {
		t.Fatal(reason)
	}
	// EBASpec matches the specialized path.
	if ok, _ := eba.IsOptimalSpec(e, eba.EBASpec(), eba.TwoStep(e, eba.NeverDecide())); !ok {
		t.Fatal("EBA spec oracle disagrees")
	}
}

// TestFacadeParser parses and evaluates through the public API.
func TestFacadeParser(t *testing.T) {
	f, err := eba.ParseFormula("Cbox E0 -> C E0")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Crash, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eba.NewEvaluator(sys).Valid(f) {
		t.Fatal("C□ ⇒ C should be valid")
	}
	if _, err := eba.ParseFormula("nonsense("); err == nil {
		t.Fatal("bad formula accepted")
	}
}

// TestFacadeTemporalAndSBA touches the remaining wrappers: temporal
// operators, the SBA helpers, halting, F0, the TCP runtime, observers.
func TestFacadeTemporalAndSBA(t *testing.T) {
	params := eba.Params{N: 3, T: 1}
	sys, err := eba.NewSystem(params, eba.Crash, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := eba.NewEvaluator(sys)

	nf := eba.Nonfaulty()
	hier := eba.Implies(eba.Future(eba.C(nf, eba.Exists1())), eba.CDiamond(nf, eba.Exists1()))
	if !e.Valid(hier) {
		t.Fatal("◇C ⇒ C◇ should hold")
	}
	if !e.Valid(eba.Implies(eba.Henceforth(eba.Exists0()), eba.Exists0())) {
		t.Fatal("□ ⇒ present should hold")
	}
	if !e.Valid(eba.EDiamond(nf, eba.Or(eba.Exists0(), eba.Exists1()))) {
		t.Fatal("everyone eventually believes a tautology-ish fact")
	}

	f0 := eba.F0Pair(e)
	if err := eba.CheckWeakAgreement(sys, f0); err != nil {
		t.Fatal(err)
	}
	if _, dh := eba.DecisionHistogram(sys, f0)[eba.Round(0)]; !dh {
		// F0 decides some runs at time 0 (unanimous visible facts may
		// take longer; just exercise the call).
		_ = dh
	}
	if _, all := eba.MaxNonfaultyDecisionRound(sys, eba.P0OptPair()); !all {
		t.Fatal("P0opt decides everywhere")
	}

	// Halting variant runs and decides.
	tr, err := eba.Run(eba.P0OptHalting(), params, eba.ConfigFromBits(3, 0b110), eba.FailureFree(eba.Crash, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.NonfaultyDecided() {
		t.Fatal("halting variant undecided")
	}

	// TCP engine through the facade: a chaos-free run reconstructs the
	// failure-free pattern and replays identically.
	wire := eba.FIPWire(eba.P0OptPair())
	trTCP, err := eba.RunResilient(wire, params, eba.ConfigFromBits(3, 0b110),
		eba.ResilientOptions{Mode: eba.Crash, Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !trTCP.NonfaultyDecided() {
		t.Fatal("TCP run undecided")
	}
	if err := eba.VerifyResilient(wire, params, trTCP); err != nil {
		t.Fatal(err)
	}
	for _, m := range []eba.ChaosMechanism{eba.ChaosDrop, eba.ChaosDelay, eba.ChaosTruncate, eba.ChaosKill, eba.ChaosPartition} {
		if got, err := eba.ParseChaosMechanism(m.String()); err != nil || got != m {
			t.Fatalf("mechanism %v parses to %v, %v", m, got, err)
		}
	}

	// Observer through the facade.
	count := 0
	obs := countObs{onMsg: func() { count++ }}
	if _, err := eba.RunObserved(eba.P0Opt(), params, eba.ConfigFromBits(3, 0), eba.FailureFree(eba.Crash, 3, 2), obs); err != nil {
		t.Fatal(err)
	}
	if count != 3*2*2 {
		t.Fatalf("observer saw %d messages", count)
	}

	// SBA helpers.
	outs := eba.SBAOutcomes(e)
	if err := eba.CheckSBAOutcomes(sys, outs); err != nil {
		t.Fatal(err)
	}
}

type countObs struct{ onMsg func() }

func (o countObs) RoundBegin(eba.Round)                            {}
func (o countObs) Message(eba.Round, eba.ProcID, eba.ProcID, bool) { o.onMsg() }
func (o countObs) Decide(eba.Round, eba.ProcID, eba.Value)         {}

// TestFacadeConformance runs a one-scenario conformance pass through
// the public API and checks the corpus reader round-trips records.
func TestFacadeConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("live-runtime scenario; skipped in -short")
	}
	res, err := eba.RunConformance(eba.ConformOptions{Seed: 2, Count: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations through facade: %+v", res.Violations)
	}
	if res.Scenarios != 1 || res.Checks == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if _, err := eba.ReadConformCorpus("does-not-exist.jsonl"); err == nil {
		t.Fatal("expected error reading a missing corpus")
	}
}
