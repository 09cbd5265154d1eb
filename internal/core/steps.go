// Package core implements the paper's primary contribution: the
// knowledge-level characterization and construction of optimal
// eventual-Byzantine-agreement protocols.
//
// It provides the two improvement steps of Proposition 5.1 (the
// "prime" step, which optimizes the decision on 0 given the rule for
// 1, and the "double-prime" step, which optimizes the decision on 1
// given the rule for 0), the two-step construction of Theorem 5.2
// that turns any full-information nontrivial agreement protocol into
// an optimal one, the optimality characterization of Theorem 5.3 used
// as an oracle, and the protocol-property checkers (weak agreement,
// weak validity, decision, dominance) that the experiments build on.
package core

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// NAnd returns the nonrigid set 𝒩 ∧ 𝒜: the nonfaulty processors whose
// local state is in the decision set (Section 4).
func NAnd(a fip.DecisionSet) knowledge.NonrigidSet {
	return knowledge.Intersect(knowledge.Nonfaulty(),
		knowledge.FromViews(a.Name(), a.Contains))
}

// DecideAtom is the basic fact decide_i(v): processor i decides or
// has decided v under the pair (true exactly when i's local state is
// in the corresponding decision set).
func DecideAtom(p fip.Pair, i types.ProcID, v types.Value) knowledge.Formula {
	set := p.Z
	if v == types.One {
		set = p.O
	}
	return knowledge.ViewAtom(fmt.Sprintf("decide_%d(%s)", i, v), i, set.Contains)
}

// PairFromFormulas materializes a decision pair from per-processor
// formulas: a view of processor i is in 𝒵 (resp. 𝒪) iff zf(i) (resp.
// of(i)) holds at some point where i holds that view — the view's
// class value of ¬K_i¬zf(i). The formulas are meant to be local — true
// at all points of a view class or at none — as every B^N_i formula
// is, and then ¬K_i¬f is f itself, read off its class table without a
// point table; for a formula that is not, "at some point" is the rule
// (TestPairFromFormulasNonLocal pins it).
func PairFromFormulas(e *knowledge.Evaluator, name string, zf, of func(i types.ProcID) knowledge.Formula) fip.Pair {
	sys := e.System()
	in := sys.Interner
	z, o := make([]bool, in.Size()), make([]bool, in.Size())
	somewhere := func(i types.ProcID, f knowledge.Formula) knowledge.Formula {
		return knowledge.Not(knowledge.K(i, knowledge.Not(f)))
	}
	for i := 0; i < sys.Params.N; i++ {
		p := types.ProcID(i)
		e.ViewTable(p, somewhere(p, zf(p)), z)
		e.ViewTable(p, somewhere(p, of(p)), o)
	}
	return fip.Pair{
		Name: name,
		Z:    fip.FromTable(name+".Z", in, z),
		O:    fip.FromTable(name+".O", in, o),
	}
}

// PrimeStep is the first construction of Proposition 5.1: given
// FIP(𝒵, 𝒪), build FIP(𝒵′, 𝒪′) with
//
//	𝒵′_i = B^N_i(∃0 ∧ C□_{𝒩∧𝒪} ∃0)
//	𝒪′_i = B^N_i(∃1 ∧ ¬C□_{𝒩∧𝒪} ∃0)
//
// — the earliest-possible decision on 0 given the pair's rule for
// deciding 1. The result is a nontrivial agreement protocol
// dominating FIP(𝒵, 𝒪).
func PrimeStep(e *knowledge.Evaluator, p fip.Pair, name string) fip.Pair {
	return PrimeStepSpec(e, EBASpec(), p, name)
}

// DoublePrimeStep is the second construction of Proposition 5.1:
// given FIP(𝒵, 𝒪), build FIP(𝒵″, 𝒪″) with
//
//	𝒵″_i = B^N_i(∃0 ∧ ¬C□_{𝒩∧𝒵} ∃1)
//	𝒪″_i = B^N_i(∃1 ∧ C□_{𝒩∧𝒵} ∃1)
//
// — the earliest-possible decision on 1 given the pair's rule for
// deciding 0.
func DoublePrimeStep(e *knowledge.Evaluator, p fip.Pair, name string) fip.Pair {
	return DoublePrimeStepSpec(e, EBASpec(), p, name)
}

// TwoStep is the construction of Theorem 5.2: F² = (F¹)″ where
// F¹ = F′. Starting from any full-information nontrivial agreement
// protocol it yields an optimal nontrivial agreement protocol
// dominating it (an optimal EBA protocol, if the input was an EBA
// protocol).
func TwoStep(e *knowledge.Evaluator, p fip.Pair) fip.Pair {
	f1 := PrimeStep(e, p, p.Name+"¹")
	return DoublePrimeStep(e, f1, p.Name+"²")
}

// EqualOn reports whether two pairs prescribe identical decisions at
// every point of the system (the sense in which Theorem 6.2 equates
// P0opt with F^Λ,2).
func EqualOn(sys *system.System, a, b fip.Pair) bool {
	equal := true
	sys.ForEachPoint(func(pt system.Point) {
		if !equal {
			return
		}
		for i := 0; i < sys.Params.N; i++ {
			id := sys.ViewAt(pt, types.ProcID(i))
			av, aok := a.Decide(sys.Interner, id)
			bv, bok := b.Decide(sys.Interner, id)
			if av != bv || aok != bok {
				equal = false
				return
			}
		}
	})
	return equal
}

// TwoStepDual is the symmetric construction the paper notes after
// Theorem 5.2 ("by symmetry, the analogous construction, exchanging
// the roles of 𝒵 and 𝒪, results in an optimal protocol"): first
// optimize the decision on 1 given the rule for 0 (double-prime),
// then the decision on 0 given the new rule for 1 (prime).
func TwoStepDual(e *knowledge.Evaluator, p fip.Pair) fip.Pair {
	f1 := DoublePrimeStep(e, p, p.Name+"¹ᵈ")
	return PrimeStep(e, f1, p.Name+"²ᵈ")
}

// EqualOnNonfaulty reports whether two pairs prescribe identical
// decisions at every state of a nonfaulty processor. This is the
// equivalence of Theorem 6.2 ("the same decisions are made by
// nonfaulty processors at corresponding points"): at states whose
// owner knows itself faulty, B^N-defined sets hold vacuously and may
// differ from concrete rules, but no agreement property observes
// those states.
func EqualOnNonfaulty(sys *system.System, a, b fip.Pair) (bool, string) {
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		for m := 0; m <= sys.Horizon; m++ {
			for _, p := range run.Nonfaulty().Members() {
				id := run.View(m, p)
				av, aok := a.Decide(sys.Interner, id)
				bv, bok := b.Decide(sys.Interner, id)
				if av != bv || aok != bok {
					return false, fmt.Sprintf("run %d (cfg %s, %s) time %d proc %d: %s=(%v,%v), %s=(%v,%v)",
						run.Index, run.Config(), run.Pattern(), m, p, a.Name, av, aok, b.Name, bv, bok)
				}
			}
		}
	}
	return true, ""
}

// Optimize iterates TwoStep until the decisions stabilize on the
// system and returns the fixed point with the number of TwoStep
// applications performed. Theorem 5.2 asserts one application
// suffices for optimality; the iteration count is measured by the
// experiments as a confirmation (a second application must be a
// no-op).
func Optimize(e *knowledge.Evaluator, p fip.Pair, maxSteps int) (fip.Pair, int) {
	cur := p
	for step := 1; step <= maxSteps; step++ {
		next := TwoStep(e, cur)
		if EqualOn(e.System(), cur, next) {
			return cur, step - 1
		}
		cur = next
	}
	return cur, maxSteps
}
