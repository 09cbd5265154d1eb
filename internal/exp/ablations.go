package exp

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
)

// newRand builds a seeded source (experiments never use global
// randomness, for reproducibility).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// A1Horizon verifies the finite-horizon substitution (DESIGN.md): the
// two-step construction computed at horizon h and at h+1 prescribes
// the same decisions for nonfaulty processors on corresponding runs
// at times ≤ h.
func A1Horizon() (*Result, error) {
	r := &Result{ID: "A1", Title: "Horizon invariance of the construction",
		Claim: "decision sets are invariant under horizon extension (facts checked are stable)"}
	return timer(r, func() error {
		const n, t, h = 3, 1, 3
		sysH, err := enumerate(n, t, failures.Crash, h)
		if err != nil {
			return err
		}
		sysH1, err := enumerate(n, t, failures.Crash, h+1)
		if err != nil {
			return err
		}
		optH := core.TwoStep(knowledge.NewEvaluator(sysH), fip.Pair{Name: "FΛ", Z: fip.Empty("z"), O: fip.Empty("o")})
		optH1 := core.TwoStep(knowledge.NewEvaluator(sysH1), fip.Pair{Name: "FΛ", Z: fip.Empty("z"), O: fip.Empty("o")})

		mismatches, compared, matched, skipped := 0, 0, 0, 0
		for ri := 0; ri < sysH.NumRuns(); ri++ {
			runH := sysH.Run(ri)
			extended, err := runH.Pattern().Extend(h + 1)
			if err != nil {
				return err
			}
			runH1, ok := sysH1.FindRun(runH.Config(), extended.Key())
			if !ok {
				// Canonical crash enumeration at h+1 represents the
				// extension of some visible behaviours differently;
				// count such runs rather than guess.
				skipped++
				continue
			}
			matched++
			for _, proc := range runH.Nonfaulty().Members() {
				vH, atH, okH := fip.DecisionAt(sysH, optH, runH, proc)
				vH1, atH1, okH1 := fip.DecisionAt(sysH1, optH1, runH1, proc)
				compared++
				// Decisions at the shorter horizon must be reproduced
				// exactly (both protocols decide by t+1 < h).
				if okH != okH1 || vH != vH1 || atH != atH1 {
					mismatches++
				}
			}
		}
		tbl := &Table{Header: []string{"runs compared", "decisions compared", "mismatches"}}
		tbl.Add(fmt.Sprintf("%d", matched), fmt.Sprintf("%d", compared), fmt.Sprintf("%d", mismatches))
		r.Table = tbl
		r.Pass = mismatches == 0 && compared > 0
		r.Summary = fmt.Sprintf("%d comparisons, %d mismatches (want 0); %d of %d runs skipped: no h+1 run matches their extension",
			compared, mismatches, skipped, sysH.NumRuns())
		return nil
	})
}

// A2Interning measures what hash-consing buys: the ratio of view
// slots (points × processors) to distinct interned views.
func A2Interning() (*Result, error) {
	r := &Result{ID: "A2", Title: "View interning dedup factor",
		Claim: "indistinguishability classes make exhaustive systems compact"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"system", "runs", "view slots", "distinct views", "dedup ×"}}
		for _, tc := range []struct {
			mode failures.Mode
			n, t int
			h    int
		}{
			{failures.Crash, 3, 1, 3},
			{failures.Crash, 4, 1, 3},
			{failures.Omission, 3, 1, 3},
		} {
			sys, err := enumerate(tc.n, tc.t, tc.mode, tc.h)
			if err != nil {
				return err
			}
			slots := sys.NumPoints() * tc.n
			distinct := sys.Interner.Size()
			tbl.Add(fmt.Sprintf("%s n=%d t=%d h=%d", tc.mode, tc.n, tc.t, tc.h),
				fmt.Sprintf("%d", sys.NumRuns()), fmt.Sprintf("%d", slots),
				fmt.Sprintf("%d", distinct), fmt.Sprintf("%.1f", float64(slots)/float64(distinct)))
		}
		r.Table = tbl
		r.Pass = true
		r.Summary = "dedup factors reported (informational)"
		return nil
	})
}

// A4ConvergenceDepth measures how deep the infinite conjunction
// ∧_k E^k φ defining common knowledge must be unrolled before it
// matches the reachability-computed C_S φ — the "everyone knows that
// everyone knows that..." nesting actually required on finite
// systems. That it converges at all is the registry claim
// A4/converges.
func A4ConvergenceDepth() (*Result, error) {
	r := &Result{ID: "A4", Title: "Ablation: depth of the E^k conjunction for C",
		Claim: "the infinite conjunction converges at small finite depth"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"system", "fact", "depth", "points"}}
		var failed []error
		for _, tc := range []struct {
			mode failures.Mode
			n, t int
			h    int
		}{
			{failures.Crash, 3, 1, 2},
			{failures.Crash, 3, 1, 3},
			{failures.Crash, 4, 1, 3},
			{failures.Omission, 3, 1, 3},
		} {
			sys, err := enumerate(tc.n, tc.t, tc.mode, tc.h)
			if err != nil {
				return err
			}
			e := knowledge.NewEvaluator(sys)
			for _, c := range claimsOf("A4") {
				if err := c.Check(sys, e); err != nil {
					failed = append(failed, fmt.Errorf("%s on %s n=%d t=%d h=%d: %w", c.ID, tc.mode, tc.n, tc.t, tc.h, err))
				}
			}
			for _, phi := range []knowledge.Formula{knowledge.Exists0(), knowledge.Exists1()} {
				depth, _ := e.CIterConvergence(knowledge.Nonfaulty(), phi, sys.NumPoints())
				tbl.Add(fmt.Sprintf("%s n=%d t=%d h=%d", tc.mode, tc.n, tc.t, tc.h),
					phi.String(), fmt.Sprintf("%d", depth), fmt.Sprintf("%d", sys.NumPoints()))
			}
		}
		err := errors.Join(failed...)
		r.Table, r.Pass = tbl, err == nil
		r.Summary = "conjunction depth is far below the point count on every system"
		if err != nil {
			r.Summary = err.Error()
		}
		return nil
	})
}
