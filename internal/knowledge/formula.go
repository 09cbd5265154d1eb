package knowledge

import (
	"fmt"
	"strings"

	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Formula is a sentence of the paper's epistemic language. Formulas
// are immutable trees built with the constructors below; evaluators
// memoize truth tables by node identity, so sharing subformulas makes
// evaluation cheaper.
type Formula interface {
	fmt.Stringer
	// maxProc is MaxProc's value.
	maxProc() types.ProcID
}

type atomF struct {
	name string
	pred func(sys *system.System, pt system.Point) bool
}

// runAtomF is a primitive proposition whose truth is constant along a
// run (∃0, ∃1, init_p=v): the evaluator asks pred once per run and
// writes the answer into all of the run's points. p is the processor
// the fact names (init_p=v), -1 for one that names none.
type runAtomF struct {
	name string
	p    types.ProcID
	pred func(run system.Run) bool
}

// nonfaultyF is the fact p ∈ 𝒩; its truth table is 𝒩's membership
// mask for p, which the evaluator keeps anyway.
type nonfaultyF struct{ p types.ProcID }

// emptyF is the fact S = ∅; its truth table is the complement of the
// union of S's membership masks.
type emptyF struct{ s NonrigidSet }

// viewAtomF is a primitive proposition about processor p's local
// state: the evaluator asks pred once per view p holds anywhere in the
// system and expands the answers to points.
type viewAtomF struct {
	name string
	p    types.ProcID
	pred ViewPred
}

type constF struct{ v bool }

type notF struct{ f Formula }

type andF struct{ fs []Formula }

type orF struct{ fs []Formula }

type kF struct {
	i types.ProcID
	f Formula
}

type bF struct {
	i types.ProcID
	s NonrigidSet
	f Formula
}

type eF struct {
	s NonrigidSet
	f Formula
}

type cF struct {
	s NonrigidSet
	f Formula
}

type boxF struct{ f Formula }

type diamondF struct{ f Formula }

type cboxF struct {
	s NonrigidSet
	f Formula
}

type henceforthF struct{ f Formula }

type futureF struct{ f Formula }

type ediamondF struct {
	s NonrigidSet
	f Formula
}

type cdiamondF struct {
	s NonrigidSet
	f Formula
}

func (*atomF) maxProc() types.ProcID         { return -1 }
func (f *runAtomF) maxProc() types.ProcID    { return f.p }
func (f *viewAtomF) maxProc() types.ProcID   { return f.p }
func (f *nonfaultyF) maxProc() types.ProcID  { return f.p }
func (*emptyF) maxProc() types.ProcID        { return -1 }
func (*constF) maxProc() types.ProcID        { return -1 }
func (f *notF) maxProc() types.ProcID        { return f.f.maxProc() }
func (f *andF) maxProc() types.ProcID        { return maxProcOf(f.fs) }
func (f *orF) maxProc() types.ProcID         { return maxProcOf(f.fs) }
func (f *kF) maxProc() types.ProcID          { return max(f.i, f.f.maxProc()) }
func (f *bF) maxProc() types.ProcID          { return max(f.i, f.f.maxProc()) }
func (f *eF) maxProc() types.ProcID          { return f.f.maxProc() }
func (f *cF) maxProc() types.ProcID          { return f.f.maxProc() }
func (f *boxF) maxProc() types.ProcID        { return f.f.maxProc() }
func (f *diamondF) maxProc() types.ProcID    { return f.f.maxProc() }
func (f *cboxF) maxProc() types.ProcID       { return f.f.maxProc() }
func (f *henceforthF) maxProc() types.ProcID { return f.f.maxProc() }
func (f *futureF) maxProc() types.ProcID     { return f.f.maxProc() }
func (f *ediamondF) maxProc() types.ProcID   { return f.f.maxProc() }
func (f *cdiamondF) maxProc() types.ProcID   { return f.f.maxProc() }

func maxProcOf(fs []Formula) types.ProcID {
	m := types.ProcID(-1)
	for _, f := range fs {
		m = max(m, f.maxProc())
	}
	return m
}

func (f *atomF) String() string      { return f.name }
func (f *runAtomF) String() string   { return f.name }
func (f *viewAtomF) String() string  { return f.name }
func (f *nonfaultyF) String() string { return fmt.Sprintf("%d∈𝒩", f.p) }
func (f *emptyF) String() string     { return f.s.Name() + "=∅" }
func (f *constF) String() string     { return map[bool]string{true: "⊤", false: "⊥"}[f.v] }
func (f *notF) String() string       { return "¬" + f.f.String() }
func (f *andF) String() string       { return join(f.fs, " ∧ ") }
func (f *orF) String() string        { return join(f.fs, " ∨ ") }
func (f *kF) String() string         { return fmt.Sprintf("K_%d %s", f.i, f.f) }
func (f *bF) String() string         { return fmt.Sprintf("B^%s_%d %s", f.s.Name(), f.i, f.f) }
func (f *eF) String() string         { return fmt.Sprintf("E_%s %s", f.s.Name(), f.f) }
func (f *cF) String() string         { return fmt.Sprintf("C_%s %s", f.s.Name(), f.f) }
func (f *boxF) String() string       { return "□̂ " + f.f.String() }
func (f *diamondF) String() string {
	return "◇̂ " + f.f.String()
}
func (f *cboxF) String() string       { return fmt.Sprintf("C□_%s %s", f.s.Name(), f.f) }
func (f *henceforthF) String() string { return "□ " + f.f.String() }
func (f *futureF) String() string     { return "◇ " + f.f.String() }
func (f *ediamondF) String() string   { return fmt.Sprintf("E◇_%s %s", f.s.Name(), f.f) }
func (f *cdiamondF) String() string   { return fmt.Sprintf("C◇_%s %s", f.s.Name(), f.f) }

func join(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Atom builds a primitive proposition from an arbitrary point
// predicate. The evaluator can assume nothing about it and asks pred
// at every point; facts that are constant along a run or depend only
// on one processor's view should be built with RunAtom or ViewAtom.
func Atom(name string, pred func(sys *system.System, pt system.Point) bool) Formula {
	return &atomF{name: name, pred: pred}
}

// RunAtom builds a primitive proposition from a predicate over runs:
// it holds at a point iff pred holds of the point's run.
func RunAtom(name string, pred func(run system.Run) bool) Formula {
	return &runAtomF{name: name, p: -1, pred: pred}
}

// True is the constant ⊤.
func True() Formula { return trueF }

// False is the constant ⊥.
func False() Formula { return falseF }

var (
	trueF  = &constF{v: true}
	falseF = &constF{v: false}
)

// Not is negation.
func Not(f Formula) Formula { return &notF{f: f} }

// And is conjunction.
func And(fs ...Formula) Formula { return &andF{fs: fs} }

// Or is disjunction.
func Or(fs ...Formula) Formula { return &orF{fs: fs} }

// Implies is material implication.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }

// Iff is material equivalence.
func Iff(a, b Formula) Formula { return And(Implies(a, b), Implies(b, a)) }

// K is the knowledge operator: K_i φ holds at (r, m) iff φ holds at
// every point where processor i has the same state.
func K(i types.ProcID, f Formula) Formula { return &kF{i: i, f: f} }

// B is belief relative to a nonrigid set: B^S_i φ = K_i(i ∈ S ⇒ φ).
func B(i types.ProcID, s NonrigidSet, f Formula) Formula { return &bF{i: i, s: s, f: f} }

// E is "everyone in S believes": E_S φ = ∧_{i ∈ S} B^S_i φ. It holds
// vacuously where S is empty.
func E(s NonrigidSet, f Formula) Formula { return &eF{s: s, f: f} }

// C is common knowledge among the nonrigid set S: the infinite
// conjunction ∧_k E_S^k φ, computed by reachability.
func C(s NonrigidSet, f Formula) Formula { return &cF{s: s, f: f} }

// Box is the paper's □̂: φ holds at all times of the run — past,
// present, and future.
func Box(f Formula) Formula { return &boxF{f: f} }

// Diamond is the dual ◇̂: φ holds at some time of the run.
func Diamond(f Formula) Formula { return &diamondF{f: f} }

// EBox is E□_S φ = □̂ E_S φ.
func EBox(s NonrigidSet, f Formula) Formula { return Box(E(s, f)) }

// CBox is continual common knowledge: C□_S φ = ∧_k (E□_S)^k φ,
// computed by the S-□-reachability characterization (Corollary 3.3).
func CBox(s NonrigidSet, f Formula) Formula { return &cboxF{s: s, f: f} }

// Henceforth is the standard future-time □: φ holds now and at all
// later times of the run. (The paper writes □ψ for "always ψ",
// restricted to present and future, in contrast to □̂.)
func Henceforth(f Formula) Formula { return &henceforthF{f: f} }

// Future is the standard ◇: φ holds now or at some later time of the
// run ("eventually φ").
func Future(f Formula) Formula { return &futureF{f: f} }

// EDiamond is E◇_S φ: everyone in S will eventually believe φ —
// ∧_{i∈S(r,m)} ◇ B^S_i φ. It is the building block of eventual common
// knowledge (HM90; discussed in Section 3.2 of the paper).
func EDiamond(s NonrigidSet, f Formula) Formula { return &ediamondF{s: s, f: f} }

// CDiamond is eventual common knowledge C◇_S φ: the greatest fixed
// point of X ↔ E◇_S(φ ∧ X). Section 3.2 shows it is too weak a basis
// for EBA decisions — the motivation for C□. On finite-horizon
// systems ◇ is evaluated over the enumerated prefix; facts involving
// C◇ near the horizon are therefore approximate (see DESIGN.md).
func CDiamond(s NonrigidSet, f Formula) Formula { return &cdiamondF{s: s, f: f} }

// Exists0 is the basic fact ∃0: some processor started with 0.
func Exists0() Formula { return existsVal(types.Zero) }

// Exists1 is the basic fact ∃1.
func Exists1() Formula { return existsVal(types.One) }

var (
	exists0F = &runAtomF{name: "∃0", p: -1, pred: func(run system.Run) bool {
		return run.HasValue(types.Zero)
	}}
	exists1F = &runAtomF{name: "∃1", p: -1, pred: func(run system.Run) bool {
		return run.HasValue(types.One)
	}}
)

func existsVal(v types.Value) Formula {
	if v == types.Zero {
		return exists0F
	}
	return exists1F
}

// InitialIs holds at points of runs where processor p started with v.
func InitialIs(p types.ProcID, v types.Value) Formula {
	return &runAtomF{name: fmt.Sprintf("init_%d=%s", p, v), p: p, pred: func(run system.Run) bool {
		return run.Initial(p) == v
	}}
}

// IsNonfaulty holds at points of runs where p never fails.
func IsNonfaulty(p types.ProcID) Formula { return &nonfaultyF{p: p} }

// ViewAtom holds at a point iff pred holds of processor p's view
// there. Decision facts like decide_i(v) are ViewAtoms (a decision
// depends only on the local state, Proposition 4.1).
func ViewAtom(name string, p types.ProcID, pred func(in *views.Interner, id views.ID) bool) Formula {
	return &viewAtomF{name: name, p: p, pred: pred}
}

// SetEmpty holds at points where the nonrigid set S is empty; the
// paper's proofs use facts like (𝒩 ∧ 𝒵) = ∅.
func SetEmpty(s NonrigidSet) Formula { return &emptyF{s: s} }

// MaxProc returns the largest processor index f names — in K_i, B^S_i,
// a ViewAtom, i∈𝒩 or init_i=v — or -1 if it names none. f is about a
// system of n processors only if MaxProc(f) < n.
func MaxProc(f Formula) types.ProcID { return f.maxProc() }
