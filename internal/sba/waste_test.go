package sba

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/types"
)

// The concrete waste rule coincides with the semantic common-knowledge
// rule on every run — Dwork and Moses' optimum-SBA theorem, checked
// exhaustively at n=3/4 and t=1/2.
func TestWasteRuleMatchesCommonKnowledge(t *testing.T) {
	sizes := []struct{ n, t, h int }{{3, 1, 3}, {4, 1, 3}}
	if !testing.Short() {
		sizes = append(sizes, struct{ n, t, h int }{4, 2, 4})
	}
	for _, size := range sizes {
		sys := crashSys(t, size.n, size.t, size.h)
		ck := CommonKnowledgeOutcomes(knowledge.NewEvaluator(sys))
		ws := WasteOutcomes(sys, size.t)
		for r := range ck {
			if !ws[r].Decided {
				t.Fatalf("n=%d t=%d run %d: waste rule undecided", size.n, size.t, r)
			}
			if ck[r].Time != ws[r].Time || ck[r].Value != ws[r].Value {
				run := sys.Run(r)
				t.Fatalf("n=%d t=%d cfg=%s %s: ck=(%s,%d) waste=(%s,%d)",
					size.n, size.t, run.Config(), run.Pattern(),
					ck[r].Value, ck[r].Time, ws[r].Value, ws[r].Time)
			}
		}
		if err := CheckOutcomes(sys, ws); err != nil {
			t.Fatal(err)
		}
	}
}

// Simultaneity from local state: every nonfaulty processor's own view
// yields the same decision time and value — the rule is a genuine
// protocol, not just an outcome function.
func TestWasteRuleLocallyComputableAndSimultaneous(t *testing.T) {
	sys := crashSys(t, 4, 2, 4)
	const tt = 2
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		var wantT = -1
		var wantV types.Value
		for _, p := range run.Nonfaulty().Members() {
			decided := -1
			var val types.Value
			for m := 0; m <= sys.Horizon; m++ {
				id := run.View(m, p)
				if decideTime(sys.Interner, id, tt) == m {
					decided = m
					val = types.One
					if sys.Interner.Knows(id, types.Zero) {
						val = types.Zero
					}
					break
				}
			}
			if decided < 0 {
				t.Fatalf("run %d proc %d: never decides", run.Index, p)
			}
			if wantT < 0 {
				wantT, wantV = decided, val
			} else if wantT != decided || wantV != val {
				t.Fatalf("run %d (cfg %s, %s): proc %d decides (%s,%d), others (%s,%d) — simultaneity broken",
					run.Index, run.Config(), run.Pattern(), p, val, decided, wantV, wantT)
			}
		}
	}
}

// Waste cannot push the decision below time 1 or above t+1.
func TestWasteBounds(t *testing.T) {
	sys := crashSys(t, 4, 2, 4)
	for r, out := range WasteOutcomes(sys, 2) {
		if !out.Decided || out.Time < 1 || out.Time > 3 {
			t.Fatalf("run %d: outcome %+v out of [1, t+1]", r, out)
		}
	}
}
