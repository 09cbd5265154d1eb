package core

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// TestDecisionTablesOfDifferentSystems: comparing tables built over
// two systems is a bug in the caller, not an answer.
func TestDecisionTablesOfDifferentSystems(t *testing.T) {
	a := Decisions(enum(t, 3, 1, failures.Crash, 2), p0Pair(1))
	b := Decisions(enum(t, 3, 1, failures.Crash, 2), p0Pair(1))
	defer func() {
		if recover() == nil {
			t.Fatal("tables over different systems were compared")
		}
	}()
	a.Dominates(b)
}

// TestPairFromFormulasNonLocal pins what PairFromFormulas does with a
// formula that is not a function of the processor's view: a view is in
// the set iff the formula holds at some point where the processor
// holds it. init_1=1 is such a formula for processor 0 — its initial
// view says nothing about processor 1's value, so the view's class
// mixes points where the formula holds with points where it fails.
func TestPairFromFormulasNonLocal(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 2)
	e := knowledge.NewEvaluator(sys)
	nonLocal := knowledge.InitialIs(1, types.One)
	p := PairFromFormulas(e, "nonlocal",
		func(types.ProcID) knowledge.Formula { return nonLocal },
		func(types.ProcID) knowledge.Formula { return knowledge.False() },
	)
	tbl := e.Eval(nonLocal)
	in := sys.Interner
	// some[id] and all[id]: the formula holds at some / every point where
	// view id's owner holds it.
	some, all := make([]bool, in.Size()), make([]bool, in.Size())
	for id := range all {
		all[id] = true
	}
	for idx := 0; idx < sys.NumPoints(); idx++ {
		for p := types.ProcID(0); int(p) < sys.Params.N; p++ {
			id := sys.ViewAt(sys.PointAt(idx), p)
			some[id] = some[id] || tbl.Get(idx)
			all[id] = all[id] && tbl.Get(idx)
		}
	}
	mixed, members := 0, 0
	for id := views.ID(0); int(id) < in.Size(); id++ {
		some, all := some[id], all[id]
		if got := p.Z.Contains(in, id); got != some {
			t.Fatalf("view %d (%s): in 𝒵 = %v, but the formula holds somewhere in its class = %v", id, in.String(id), got, some)
		}
		if some {
			members++
			if !all {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no view class mixes truth values: the formula is local and the test pins nothing")
	}
	if leaf := in.Leaf(0, types.Zero); !p.Z.Contains(in, leaf) {
		t.Error("processor 0's initial view is held where init_1=1, yet it is not in 𝒵")
	}
	if fip.Size(p.Z) != members || fip.Size(p.O) != 0 {
		t.Errorf("sizes (%d, %d), want (%d, 0)", fip.Size(p.Z), fip.Size(p.O), members)
	}
}
