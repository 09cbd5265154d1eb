package sba

import (
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// WasteOutcomes implements the concrete optimum SBA rule of Dwork and
// Moses (DM90) for the crash mode, evaluated on full-information
// views: a processor decides at the first time
//
//	m  =  min over k ≤ m of  (k + t + 1 − N(k))
//
// where N(k) is the number of processors whose failure it knows, at
// time m, to have become visible by round k ("waste": every failure
// the adversary reveals early buys one round). The decided value is 0
// if a 0 is recorded in the view and 1 otherwise (by decision time
// the active processors share the relevant facts, so the rule is
// simultaneous and consistent — checked against the semantic
// common-knowledge rule in the tests).
func WasteOutcomes(sys *system.System, t int) []Outcome {
	outs := make([]Outcome, sys.NumRuns())
	for r := 0; r < sys.NumRuns(); r++ {
		run := sys.Run(r)
		outs[r] = wasteOutcome(sys, run, t)
	}
	return outs
}

// wasteOutcome computes the run's outcome from the first nonfaulty
// processor's view (the rule is simultaneous; agreement across
// processors is asserted by tests, not assumed here).
func wasteOutcome(sys *system.System, run system.Run, t int) Outcome {
	procs := run.Nonfaulty().Members()
	if len(procs) == 0 {
		return Outcome{}
	}
	p := procs[0]
	for m := 0; m <= sys.Horizon; m++ {
		id := run.View(m, p)
		if decideTime(sys.Interner, id, t) == m {
			v := types.One
			if sys.Interner.Knows(id, types.Zero) {
				v = types.Zero
			}
			return Outcome{Time: types.Round(m), Value: v, Decided: true}
		}
	}
	return Outcome{}
}

// decideTime returns min over k ≤ m of (k + t + 1 − N(k)) computed
// from the time-m view, where N(k) counts processors whose failure
// became visible by round k.
func decideTime(in *views.Interner, id views.ID, t int) int {
	m := int(in.Time(id))
	best := t + 1 // k = 0 baseline: N(0) = 0
	for k := 1; k <= m; k++ {
		n := failuresVisibleBy(in, id, k).Len()
		if cand := k + t + 1 - n; cand < best {
			best = cand
		}
	}
	return best
}

// failuresVisibleBy returns the processors whose faulty behaviour is,
// according to this view, visible in rounds ≤ k: some processor
// missed their round-j message for j ≤ k.
func failuresVisibleBy(in *views.Interner, id views.ID, k int) types.ProcSet {
	var s types.ProcSet
	var walk func(views.ID)
	seen := map[views.ID]bool{}
	walk = func(v views.ID) {
		if v == views.NoView || seen[v] {
			return
		}
		seen[v] = true
		if in.Time(v) == 0 {
			return
		}
		for j := 0; j < in.N(); j++ {
			ch := in.From(v, types.ProcID(j))
			if ch == views.NoView {
				if int(in.Time(v)) <= k {
					s = s.Add(types.ProcID(j))
				}
				continue
			}
			walk(ch)
		}
	}
	walk(id)
	return s
}
