// Package knowledge is the model checker for the paper's epistemic
// logic over enumerated full-information systems: the operators K_i,
// B^S_i, E_S, C_S, the all-times modality □̂, E□_S, and the paper's
// new continual common knowledge C□_S, together with the nonrigid
// processor sets they are indexed by.
//
// Semantics follow Section 3 of Halpern, Moses, and Waarts (PODC
// 1990): a processor knows φ at a point exactly if φ holds at all
// points where it has the same state; B^S_i φ = K_i(i ∈ S ⇒ φ);
// E_S φ = ∧_{i∈S} B^S_i φ; C_S φ = ∧_k E_S^k φ; E□_S φ = □̂ E_S φ
// (at all times past, present, and future); C□_S φ = ∧_k (E□_S)^k φ.
// C_S and C□_S are computed by their reachability characterizations
// (fixed points / Proposition 3.2 and Corollary 3.3), with the naive
// iterative computation retained as a cross-check and ablation; C◇_S,
// the greatest fixed point of X = E◇_S(φ ∧ X), by a layered worklist,
// with the naive downward iteration kept in the tests as its oracle.
package knowledge

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// NonrigidSet is a set of processors that may vary from point to
// point (Section 3.1). The paper's sets are all built from four
// constructors, and no others exist: 𝒩 (Nonfaulty), a rigid set
// (Const), a set of local states such as 𝒵 and 𝒪 (FromViews), and the
// intersection of two sets (Intersect). Each factors its membership by
// the granularity it is constant at — per run, per view, or everywhere
// — which is all the evaluator reads; Members is the pointwise
// definition, which only the reference evaluator reads (ref.go). Sets
// are pointers, because
// evaluators cache per-set structures keyed by the interface value.
type NonrigidSet interface {
	// Name identifies the set in formula renderings.
	Name() string
	// Members returns the set's value at the point.
	Members(sys *system.System, pt system.Point) types.ProcSet
	// factor returns the set's membership per processor (see member).
	factor(e *Evaluator) []member
}

// nonfaultySet is 𝒩, the nonrigid set of nonfaulty processors.
type nonfaultySet struct{}

// Nonfaulty returns 𝒩, the nonrigid set of processors that are
// nonfaulty throughout the run.
func Nonfaulty() NonrigidSet { return theNonfaulty }

var theNonfaulty = &nonfaultySet{}

func (*nonfaultySet) Name() string { return "𝒩" }

func (*nonfaultySet) factor(e *Evaluator) []member {
	return perProc(e, func(types.ProcID) member { return member{nf: true} })
}

// perProc builds a membership one processor at a time.
func perProc(e *Evaluator, mb func(i types.ProcID) member) []member {
	ms := make([]member, e.sys.Params.N)
	for i := range ms {
		ms[i] = mb(types.ProcID(i))
	}
	return ms
}

// constSet is a rigid set.
type constSet struct {
	name string
	set  types.ProcSet
}

// Const returns the rigid (point-independent) set.
func Const(name string, set types.ProcSet) NonrigidSet {
	return &constSet{name: name, set: set}
}

func (c *constSet) Name() string { return c.name }

func (c *constSet) factor(e *Evaluator) []member {
	return perProc(e, func(i types.ProcID) member { return member{out: !c.set.Contains(i)} })
}

// ViewPred is a predicate over interned views; the decision sets 𝒵
// and 𝒪 of the paper are ViewPreds (a processor's membership depends
// only on its local state).
type ViewPred func(in *views.Interner, id views.ID) bool

// viewSet is the nonrigid set {i : pred(view_i)}.
type viewSet struct {
	name string
	pred ViewPred
}

// FromViews returns the nonrigid set containing processor i at a
// point exactly if pred holds of i's view there.
func FromViews(name string, pred ViewPred) NonrigidSet {
	return &viewSet{name: name, pred: pred}
}

func (v *viewSet) Name() string { return v.name }

func (v *viewSet) factor(e *Evaluator) []member {
	return perProc(e, func(i types.ProcID) member { return member{views: e.classVals(i, v.pred)} })
}

// intersectSet is S₁ ∧ S₂, e.g. the paper's 𝒩 ∧ 𝒪.
type intersectSet struct {
	a, b NonrigidSet
}

// Intersect returns the pointwise intersection of two nonrigid sets.
func Intersect(a, b NonrigidSet) NonrigidSet { return &intersectSet{a: a, b: b} }

func (s *intersectSet) Name() string {
	return fmt.Sprintf("(%s∧%s)", s.a.Name(), s.b.Name())
}

func (s *intersectSet) factor(e *Evaluator) []member {
	a, b := s.a.factor(e), s.b.factor(e)
	return perProc(e, func(i types.ProcID) member {
		return member{out: a[i].out || b[i].out, nf: a[i].nf || b[i].nf, views: andViews(a[i].views, b[i].views)}
	})
}
