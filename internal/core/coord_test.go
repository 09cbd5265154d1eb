package core

import (
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// biasedSpec is a non-EBA coordination instance: action 0 is enabled
// by any 0 on board (as in EBA), but action 1 requires unanimous
// ones (¬∃0). Φ₀ ∨ Φ₁ is a tautology, so the decision property is
// satisfiable, and both facts are run-constant.
func biasedSpec() Spec {
	return Spec{
		Name: "biased",
		Phi0: knowledge.Exists0(),
		Phi1: knowledge.Not(knowledge.Exists0()),
	}
}

func TestSpecValidate(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 3)
	e := knowledge.NewEvaluator(sys)
	if err := EBASpec().Validate(e); err != nil {
		t.Fatal(err)
	}
	if err := biasedSpec().Validate(e); err != nil {
		t.Fatal(err)
	}
	// A time-varying enabling fact is rejected.
	varying := Spec{Name: "bad", Phi0: knowledge.ViewAtom("heard", 0,
		func(in *views.Interner, id views.ID) bool { return in.HeardFrom(id).Len() > 0 }),
		Phi1: knowledge.Exists1()}
	if err := varying.Validate(e); err == nil || !strings.Contains(err.Error(), "run-constant") {
		t.Fatalf("time-varying spec accepted: %v", err)
	}
	// A spec with an enabling gap is rejected.
	gap := Spec{Name: "gap", Phi0: knowledge.Exists0(), Phi1: knowledge.Not(knowledge.Exists1())}
	if err := gap.Validate(e); err == nil || !strings.Contains(err.Error(), "no action") {
		t.Fatalf("gapped spec accepted: %v", err)
	}
}

// The generalized construction solves the biased coordination problem
// optimally: agreement, enabling, decision, the generalized Theorem
// 5.3 oracle, and a fixed point — in both failure modes. The biased
// optimum decides 1 more conservatively than the EBA optimum (it must
// be sure there is no 0 at all), and the two protocols genuinely
// differ.
func TestTwoStepSpecBiasedCoordination(t *testing.T) {
	spec := biasedSpec()
	for _, mode := range []failures.Mode{failures.Crash, failures.Omission} {
		sys := enum(t, 3, 1, mode, 3)
		e := knowledge.NewEvaluator(sys)
		if err := spec.Validate(e); err != nil {
			t.Fatal(err)
		}
		flam := fip.Pair{Name: "FΛ", Z: fip.Empty("z"), O: fip.Empty("o")}
		opt := TwoStepSpec(e, spec, flam)

		if err := CheckWeakAgreement(sys, opt); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := CheckEnabling(e, spec, opt); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := fip.Monotone(sys, opt); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ok, reason := IsOptimalSpec(e, spec, opt)
		if !ok {
			t.Fatalf("%v: biased optimum fails the generalized oracle: %s", mode, reason)
		}
		next := TwoStepSpec(e, spec, opt)
		if !EqualOn(sys, opt, next) {
			t.Fatalf("%v: construction not a fixed point", mode)
		}

		// Unlike EBA, the biased problem admits no full decision
		// property: Φ₁ = ¬∃0 means deciding 1 requires knowing every
		// initial value, so whenever a faulty processor takes its
		// value to the grave, the survivors can never learn which
		// action is enabled and must stay undecided — the optimum is
		// a nontrivial agreement protocol in the paper's sense.
		// Verify the gap is exactly information-theoretic: an
		// undecided processor's final view is missing some value.
		sawUndecided := false
		for ri := 0; ri < sys.NumRuns(); ri++ {
			run := sys.Run(ri)
			for _, proc := range run.Nonfaulty().Members() {
				if _, _, ok := fip.DecisionAt(sys, opt, run, proc); ok {
					continue
				}
				sawUndecided = true
				final := run.View(sys.Horizon, proc)
				complete := true
				for _, v := range sys.Interner.KnownValues(final) {
					if v == types.Unset {
						complete = false
					}
				}
				if complete {
					t.Fatalf("%v: processor %d undecided in run %d despite knowing every value",
						mode, proc, run.Index)
				}
			}
		}
		if !sawUndecided {
			t.Fatalf("%v: expected hidden-value runs to block decisions", mode)
		}

		if mode == failures.Crash {
			ebaOpt := TwoStep(e, flam)
			if same, _ := EqualOnNonfaulty(sys, opt, ebaOpt); same {
				t.Fatal("biased and EBA optima should differ")
			}
			if !Dominates(sys, ebaOpt, opt) {
				t.Fatal("the EBA optimum should dominate the biased one (weaker enabling)")
			}
		}
	}
}

// The generalized machinery instantiated at the EBA spec coincides
// with the specialized functions.
func TestSpecGeneralizesEBA(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 3)
	e := knowledge.NewEvaluator(sys)
	flam := fip.Pair{Name: "FΛ", Z: fip.Empty("z"), O: fip.Empty("o")}
	viaSpec := TwoStepSpec(e, EBASpec(), flam)
	direct := TwoStep(e, flam)
	if !EqualOn(sys, viaSpec, direct) {
		t.Fatal("EBA spec instantiation differs from the specialized construction")
	}
	okSpec, _ := IsOptimalSpec(e, EBASpec(), direct)
	okDirect, _ := IsOptimal(e, direct)
	if okSpec != okDirect {
		t.Fatal("oracles disagree on the EBA spec")
	}
}
