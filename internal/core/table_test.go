package core

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// tablePairs is every kind of pair the verdict path tabulates: rule-
// backed (P0, P1, P0opt, the Chain0 view rules), table-backed from
// knowledge formulas (the semantic chain pair), and the two-step
// optimum built from the pair that never decides.
func tablePairs(e *knowledge.Evaluator) []fip.Pair {
	if e.System().Mode == failures.Crash {
		return []fip.Pair{p0Pair(1), p1Pair(1), p0optPairLocal(), TwoStep(e, flam()), flam()}
	}
	chain0 := fip.Pair{
		Name: "Chain0",
		Z: fip.FromPred("Chain0.Z", func(in *views.Interner, id views.ID) bool {
			return in.BelievesExistsZeroStar(id)
		}),
		O: fip.FromPred("Chain0.O", func(in *views.Interner, id views.ID) bool {
			return !in.BelievesExistsZeroStar(id) && in.Time(id) >= 2
		}),
	}
	return []fip.Pair{chain0, chainPair(e), TwoStep(e, flam())}
}

// TestDecisionTableMatchesDecisionAt: the table is fip.DecisionAt for
// every run and every processor, faulty ones included, and the
// dominance order and worst case read off it are the ones the
// definitions give when DecisionAt is asked pair by pair.
func TestDecisionTableMatchesDecisionAt(t *testing.T) {
	for _, sys := range []*system.System{
		enum(t, 3, 1, failures.Crash, 3),
		enum(t, 3, 1, failures.Omission, 3),
	} {
		e := knowledge.NewEvaluator(sys)
		pairs := tablePairs(e)
		tables := make([]*DecisionTable, len(pairs))
		for pi, p := range pairs {
			tables[pi] = Decisions(sys, p)
			var max types.Round
			all := true
			for ri := 0; ri < sys.NumRuns(); ri++ {
				run := sys.Run(ri)
				for i := 0; i < sys.Params.N; i++ {
					proc := types.ProcID(i)
					wv, wat, wok := fip.DecisionAt(sys, p, run, proc)
					gv, gat, gok := tables[pi].At(run.Index, proc)
					if gv != wv || gat != wat || gok != wok {
						t.Fatalf("%s %s run %d proc %d: table (%s, %d, %v), DecisionAt (%s, %d, %v)",
							sys.Mode, p.Name, run.Index, proc, gv, gat, gok, wv, wat, wok)
					}
					if run.Nonfaulty().Contains(proc) {
						all = all && wok
						if wok && wat > max {
							max = wat
						}
					}
				}
			}
			if gmax, gall := tables[pi].MaxNonfaultyDecisionRound(); gmax != max || gall != all {
				t.Errorf("%s %s: worst case (%d, %v), want (%d, %v)", sys.Mode, p.Name, gmax, gall, max, all)
			}
		}
		for ai, a := range pairs {
			for bi, b := range pairs {
				dom, sooner := true, false
				for ri := 0; ri < sys.NumRuns(); ri++ {
					run := sys.Run(ri)
					for _, proc := range run.Nonfaulty().Members() {
						_, aAt, aOK := fip.DecisionAt(sys, a, run, proc)
						_, bAt, bOK := fip.DecisionAt(sys, b, run, proc)
						if bOK && (!aOK || aAt > bAt) {
							dom = false
						}
						if aOK && (!bOK || aAt < bAt) {
							sooner = true
						}
					}
				}
				if got := tables[ai].Dominates(tables[bi]); got != dom {
					t.Errorf("%s: %s dominates %s = %v, want %v", sys.Mode, a.Name, b.Name, got, dom)
				}
				if got := tables[ai].StrictlyDominates(tables[bi]); got != (dom && sooner) {
					t.Errorf("%s: %s strictly dominates %s = %v, want %v", sys.Mode, a.Name, b.Name, got, dom && sooner)
				}
				if Dominates(sys, a, b) != dom || StrictlyDominates(sys, a, b) != (dom && sooner) {
					t.Errorf("%s: free Dominates/StrictlyDominates(%s, %s) disagree with the tables", sys.Mode, a.Name, b.Name)
				}
			}
		}
	}
}

// TestDecisionTableFillsOnDemand: a question the first runs settle
// walks those runs only, so the free Dominates — two fresh tables per
// call — costs what its answer needs, not two sweeps of the system.
func TestDecisionTableFillsOnDemand(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 3)
	a, b := Decisions(sys, p1Pair(1)), Decisions(sys, p0Pair(1))
	if a.Dominates(b) {
		t.Fatal("P1 dominates P0")
	}
	walked := 0
	for r := 0; r < sys.NumRuns(); r++ {
		if a.first[r*sys.Params.N] != unwalked {
			walked++
		}
	}
	if walked == 0 || walked > sys.NumRuns()/2 {
		t.Errorf("a dominance refuted early walked %d of %d runs", walked, sys.NumRuns())
	}
	if err := a.CheckEBA(); err != nil {
		t.Errorf("reading the rest of a partly filled table: %v", err)
	}
}

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
	mixed, members := 0, 0
	for id := views.ID(0); int(id) < in.Size(); id++ {
		some, all := false, true
		for _, idx := range sys.PointIdxWithView(id) {
			some = some || tbl.Get(int(idx))
			all = all && tbl.Get(int(idx))
		}
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
