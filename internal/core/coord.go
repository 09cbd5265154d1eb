package core

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// Spec is a one-shot binary coordination problem in the sense of the
// paper's Section 7 ("it is straightforward to extend our results to
// general coordination problems along the lines of [MT88]"): two
// actions, here still written 0 and 1, with enabling facts — action v
// may be performed only in runs where Phi(v) holds. EBA is the
// instance Phi(0) = ∃0, Phi(1) = ∃1. The enabling facts must be
// run-constant (their truth may not vary with time), which the
// constructions rely on; NewSpec checks this against a system.
type Spec struct {
	Name string
	Phi0 knowledge.Formula
	Phi1 knowledge.Formula
}

// EBASpec is the paper's standard instance.
func EBASpec() Spec {
	return Spec{Name: "EBA", Phi0: knowledge.Exists0(), Phi1: knowledge.Exists1()}
}

// Phi returns the enabling fact for action v.
func (s Spec) Phi(v types.Value) knowledge.Formula {
	if v == types.Zero {
		return s.Phi0
	}
	return s.Phi1
}

// Validate checks the spec against a system: both enabling facts must
// be run-constant, and in every run at least one action must be
// enabled (otherwise no protocol can satisfy the decision property).
func (s Spec) Validate(e *knowledge.Evaluator) error {
	for _, phi := range []knowledge.Formula{s.Phi0, s.Phi1} {
		if !e.Valid(knowledge.Iff(phi, knowledge.Box(phi))) {
			return fmt.Errorf("core: spec %s: enabling fact %s is not run-constant", s.Name, phi)
		}
	}
	if !e.Valid(knowledge.Or(s.Phi0, s.Phi1)) {
		return fmt.Errorf("core: spec %s: some run enables no action", s.Name)
	}
	return nil
}

// PrimeStepSpec generalizes PrimeStep to an arbitrary coordination
// spec: 𝒵′_i = B^N_i(Φ₀ ∧ C□_{𝒩∧𝒪}Φ₀), 𝒪′_i = B^N_i(Φ₁ ∧ ¬C□_{𝒩∧𝒪}Φ₀).
func PrimeStepSpec(e *knowledge.Evaluator, spec Spec, p fip.Pair, name string) fip.Pair {
	nf := knowledge.Nonfaulty()
	cbox := knowledge.CBox(NAnd(p.O), spec.Phi0)
	zInner := knowledge.And(spec.Phi0, cbox)
	oInner := knowledge.And(spec.Phi1, knowledge.Not(cbox))
	return PairFromFormulas(e, name,
		func(i types.ProcID) knowledge.Formula { return knowledge.B(i, nf, zInner) },
		func(i types.ProcID) knowledge.Formula { return knowledge.B(i, nf, oInner) },
	)
}

// DoublePrimeStepSpec generalizes DoublePrimeStep.
func DoublePrimeStepSpec(e *knowledge.Evaluator, spec Spec, p fip.Pair, name string) fip.Pair {
	nf := knowledge.Nonfaulty()
	cbox := knowledge.CBox(NAnd(p.Z), spec.Phi1)
	zInner := knowledge.And(spec.Phi0, knowledge.Not(cbox))
	oInner := knowledge.And(spec.Phi1, cbox)
	return PairFromFormulas(e, name,
		func(i types.ProcID) knowledge.Formula { return knowledge.B(i, nf, zInner) },
		func(i types.ProcID) knowledge.Formula { return knowledge.B(i, nf, oInner) },
	)
}

// TwoStepSpec is the Theorem 5.2 construction for the spec.
func TwoStepSpec(e *knowledge.Evaluator, spec Spec, p fip.Pair) fip.Pair {
	f1 := PrimeStepSpec(e, spec, p, p.Name+"¹")
	return DoublePrimeStepSpec(e, spec, f1, p.Name+"²")
}

// CheckEnabling verifies the generalized weak validity: a nonfaulty
// processor decides v only in runs where Φ_v holds.
func CheckEnabling(e *knowledge.Evaluator, spec Spec, p fip.Pair) (err error) {
	sys := e.System()
	phi := [2]*knowledge.Bits{e.Eval(spec.Phi0), e.Eval(spec.Phi1)}
	Decisions(sys, p).forNonfaulty(func(run system.Run, proc types.ProcID, d int16) bool {
		if v, at, ok := decoded(d); ok && !phi[v].Get(sys.PointIndex(system.Point{Run: run.Index, Time: 0})) {
			err = fmt.Errorf("core: %s violates enabling for spec %s: processor %d decides %s at %d in run %d (cfg %s, %s)",
				p.Name, spec.Name, proc, v, at, run.Index, run.Config(), run.Pattern())
		}
		return err == nil
	})
	return err
}

// IsOptimalSpec is the Theorem 5.3 characterization for the spec. Each
// condition i ∈ 𝒩 ⇒ L, with L = (decide_i(v) ⟺ B^N_i(…)) local to i,
// is valid iff B^N_i L holds on every view class of i, which the
// evaluator decides from class tables: the only point tables it builds
// are the two C□ tables and the ones they need. A failing condition is
// then evaluated as written, only to name its first failing point.
func IsOptimalSpec(e *knowledge.Evaluator, spec Spec, p fip.Pair) (bool, string) {
	nf := knowledge.Nonfaulty()
	// One node each, shared by every processor's condition, so the
	// evaluator's memo computes each C□ table once.
	cboxO := knowledge.CBox(NAnd(p.O), spec.Phi0)
	cboxZ := knowledge.CBox(NAnd(p.Z), spec.Phi1)
	sys := e.System()
	for i := 0; i < sys.Params.N; i++ {
		proc := types.ProcID(i)
		d0 := DecideAtom(p, proc, types.Zero)
		d1 := DecideAtom(p, proc, types.One)
		for _, c := range []struct {
			name string
			iff  knowledge.Formula
		}{
			{"0-condition", knowledge.Iff(d0, knowledge.B(proc, nf, knowledge.And(spec.Phi0, cboxO, knowledge.Not(d1))))},
			{"1-condition", knowledge.Iff(d1, knowledge.B(proc, nf, knowledge.And(spec.Phi1, cboxZ, knowledge.Not(d0))))},
		} {
			if e.Valid(knowledge.B(proc, nf, c.iff)) {
				continue
			}
			pt, _ := e.FailingPoint(knowledge.Implies(knowledge.IsNonfaulty(proc), c.iff))
			return false, describeFailure(sys, p.Name, c.name, proc, pt)
		}
	}
	return true, ""
}
