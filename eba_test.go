package eba_test

import (
	"math/rand"
	"testing"

	eba "github.com/eventual-agreement/eba"
)

// TestEndToEndCrash walks the full public workflow in the crash mode:
// enumerate a system, derive the optimal protocol from the
// never-deciding one, verify it against the paper's oracles, and run
// its concrete equivalent on both engines.
func TestEndToEndCrash(t *testing.T) {
	params := eba.Params{N: 3, T: 1}
	sys, err := eba.NewSystem(params, eba.Crash, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := eba.NewEvaluator(sys)

	opt := eba.TwoStep(e, eba.NeverDecide())
	if err := eba.CheckEBA(sys, opt); err != nil {
		t.Fatal(err)
	}
	// F^Λ is a nontrivial agreement protocol but not an EBA protocol:
	// it is valid and never decides.
	if err := eba.CheckWeakValidity(sys, eba.NeverDecide()); err != nil {
		t.Fatal(err)
	}
	if eba.CheckDecision(sys, eba.NeverDecide()) == nil {
		t.Fatal("the never-deciding protocol passed the decision check")
	}
	if err := eba.CheckDecision(sys, opt); err != nil {
		t.Fatal(err)
	}
	// Theorem 5.2's construction is the prime step followed by the
	// double-prime step.
	byHand := eba.DoublePrimeStep(e, eba.PrimeStep(e, eba.NeverDecide(), "F¹"), "F²")
	if equal, diff := eba.EqualOnNonfaulty(sys, byHand, opt); !equal {
		t.Fatalf("TwoStep is not ″∘′: %s", diff)
	}
	if ok, reason := eba.IsOptimal(e, opt); !ok {
		t.Fatal(reason)
	}
	if equal, diff := eba.EqualOnNonfaulty(sys, opt, eba.P0OptPair()); !equal {
		t.Fatalf("Theorem 6.2 violated: %s", diff)
	}
	if !eba.StrictlyDominates(sys, opt, eba.P0Pair(params.T)) {
		t.Fatal("optimum should strictly dominate P0")
	}
	max, all := eba.MaxNonfaultyDecisionRound(sys, opt)
	if !all || max != eba.Round(params.T+1) {
		t.Fatalf("worst case %d (all=%v), want t+1", max, all)
	}

	// Concrete P0opt, deterministically and live.
	cfg := eba.ConfigFromBits(3, 0b110)
	pat := eba.Silent(eba.Crash, 3, 3, 2, 2)
	tr1, err := eba.Run(eba.P0Opt(), params, cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := eba.RunLive(eba.P0Opt(), params, cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	for p := eba.ProcID(0); p < 3; p++ {
		v1, a1, ok1 := tr1.DecisionOf(p)
		v2, a2, ok2 := tr2.DecisionOf(p)
		if v1 != v2 || a1 != a2 || ok1 != ok2 {
			t.Fatalf("engines disagree for proc %d", p)
		}
	}
	if !tr1.NonfaultyDecided() {
		t.Fatal("undecided nonfaulty processor")
	}
}

// TestEndToEndOmission exercises the omission-mode artifacts: the
// chain protocol, its optimal improvement F*, and the knowledge DSL.
func TestEndToEndOmission(t *testing.T) {
	params := eba.Params{N: 3, T: 1}
	sys, err := eba.NewSystem(params, eba.Omission, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := eba.NewEvaluator(sys)

	chain := eba.Chain0SemanticPair(e)
	if err := eba.CheckEBA(sys, chain); err != nil {
		t.Fatal(err)
	}
	fstar := eba.PrimeStep(e, chain, "F*")
	if !eba.Dominates(sys, fstar, chain) {
		t.Fatal("F* must dominate the chain protocol")
	}
	if ok, reason := eba.IsOptimal(e, fstar); !ok {
		t.Fatal(reason)
	}

	// The knowledge DSL: C□ is strictly stronger than C.
	nf := eba.Nonfaulty()
	if !e.Valid(eba.Implies(eba.CBox(nf, eba.Exists1()), eba.C(nf, eba.Exists1()))) {
		t.Fatal("C□ ⇒ C should be valid")
	}
	if e.Valid(eba.Implies(eba.C(nf, eba.Exists1()), eba.CBox(nf, eba.Exists1()))) {
		t.Fatal("C ⇒ C□ should not be valid")
	}
	// C□ is a fixed point of E□ (Corollary 3.3).
	if !e.Valid(eba.Implies(eba.CBox(nf, eba.Exists1()), eba.EBox(nf, eba.CBox(nf, eba.Exists1())))) {
		t.Fatal("C□ ⇒ E□ C□ should be valid")
	}
	// And the run-modalities behave.
	if !e.Valid(eba.Iff(eba.Box(eba.Exists0()), eba.Exists0())) {
		t.Fatal("□̂ of a run-constant fact is itself")
	}
	if !e.Valid(eba.Or(eba.Diamond(eba.Exists0()), eba.Exists1())) {
		t.Fatal("every run has a 0 or a 1")
	}

	// Concrete chain protocol over the live runtime.
	cfg, err := eba.NewConfig(eba.Zero, eba.One, eba.One)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eba.RunLive(eba.Chain0(), params, cfg, eba.SilentExcept(3, 2, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v, _, ok := tr.DecisionOf(1); !ok || v != eba.Zero {
		t.Fatal("processor 1 received the only copy of the 0 and must decide 0")
	}
}

// TestSBAFacade exercises the SBA contrast class.
func TestSBAFacade(t *testing.T) {
	params := eba.Params{N: 3, T: 1}
	sys, err := eba.NewSystem(params, eba.Crash, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	outs := eba.SBAOutcomes(eba.NewEvaluator(sys))
	if err := eba.CheckSBAOutcomes(sys, outs); err != nil {
		t.Fatal(err)
	}
	tr, err := eba.Run(eba.FloodSet(), params, eba.ConfigFromBits(3, 0b101), eba.FailureFree(eba.Crash, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for p := eba.ProcID(0); p < 3; p++ {
		if v, at, ok := tr.DecisionOf(p); !ok || at != 2 || v != eba.Zero {
			t.Fatalf("FloodSet proc %d: (%v,%d,%v)", p, v, at, ok)
		}
	}
}

// TestSamplersAndEnumerators exercises the pattern utilities through
// the facade.
func TestSamplersAndEnumerators(t *testing.T) {
	if pats, err := eba.EnumCrash(3, 1, 2); err != nil || len(pats) != 22 {
		t.Fatalf("EnumCrash: %d, %v", len(pats), err)
	}
	if _, err := eba.EnumOmission(4, 2, 3, 10); err == nil {
		t.Fatal("limit not enforced")
	}
	rng := rand.New(rand.NewSource(1))
	cr, err := eba.SampleCrash(5, 2, 3, 10, rng)
	if err != nil || len(cr) != 10 {
		t.Fatalf("SampleCrash: %v", err)
	}
	om, err := eba.SampleOmission(5, 2, 3, 10, rng)
	if err != nil || len(om) != 10 {
		t.Fatalf("SampleOmission: %v", err)
	}
	if pats, err := eba.EnumReceiving(3, 1, 2, 0); err != nil || len(pats) != 49 {
		t.Fatalf("EnumReceiving: %d, %v", len(pats), err)
	}
	if pats, err := eba.EnumGeneral(3, 1, 2, 0); err != nil || len(pats) != 769 {
		t.Fatalf("EnumGeneral: %d, %v", len(pats), err)
	}
	rc, err := eba.SampleReceiving(5, 2, 3, 10, rng)
	if err != nil || len(rc) != 10 {
		t.Fatalf("SampleReceiving: %v", err)
	}
	gn, err := eba.SampleGeneral(5, 2, 3, 10, rng)
	if err != nil || len(gn) != 10 {
		t.Fatalf("SampleGeneral: %v", err)
	}
	trs, err := eba.RunAll(eba.P0(), eba.Params{N: 3, T: 1}, []*eba.Pattern{
		eba.FailureFree(eba.Crash, 3, 2),
		eba.Deaf(eba.GeneralOmission, 3, 2, 1, 1),
	})
	if err != nil || len(trs) != 16 {
		t.Fatalf("RunAll: %v", err)
	}
	if _, err := eba.NewPattern(eba.Crash, 3, 2, eba.ProcSet(1), nil); err != nil {
		t.Fatal(err)
	}
}

// TestProp63Facade delegates the witness search (small horizon).
func TestProp63Facade(t *testing.T) {
	if testing.Short() {
		t.Skip("witness search takes ~1s")
	}
	rep, err := eba.CheckProp63(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Certified {
		t.Fatalf("not certified: %v", rep.Failures)
	}
}

// TestFIPAdapters runs a decision pair through both FIP adapters.
func TestFIPAdapters(t *testing.T) {
	params := eba.Params{N: 3, T: 1}
	sys, err := eba.NewSystem(params, eba.Crash, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pair := eba.P0OptPair()
	run := sys.Run(17)
	v, at, ok := eba.DecisionAt(sys, pair, run, 0)
	tr, err := eba.Run(eba.FIP(sys.Interner, pair), params, run.Config(), run.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	v2, at2, ok2 := tr.DecisionOf(0)
	if v != v2 || at != at2 || ok != ok2 {
		t.Fatal("FIP adapter disagrees with DecisionAt")
	}
	trw, err := eba.RunLive(eba.FIPWire(pair), params, run.Config(), run.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	v3, at3, ok3 := trw.DecisionOf(0)
	if v != v3 || at != at3 || ok != ok3 {
		t.Fatal("FIPWire adapter disagrees with DecisionAt")
	}
}
