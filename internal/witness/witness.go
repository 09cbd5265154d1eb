// Package witness establishes Proposition 6.3 — in the sending-
// omission mode with t > 1 and n >= t+2, there are runs of F^Λ,2 in
// which the nonfaulty processors never decide — by explicit
// certificate search instead of exhaustive enumeration (which is
// combinatorially out of reach at t = 2).
//
// Soundness. The proposition asserts *negative* knowledge facts about
// the target run r (all initial values 1; processor 0 faulty and
// silent): for every time m and nonfaulty i,
//
//	¬𝒵²_i: B^N_i(∃0 ∧ ¬C□_{𝒩∧𝒵¹}∃1) fails — witnessed by (r, m)
//	   itself, where i ∈ 𝒩 and ∃0 is false;
//	¬𝒪²_i: B^N_i(∃1 ∧ C□_{𝒩∧𝒵¹}∃1) fails — witnessed by a point
//	   (r', m) with r'_i(m) = r_i(m), i ∈ 𝒩(r'), at which
//	   C□_{𝒩∧𝒵¹}∃1 is false.
//
// Each witness is existential: an indistinguishable point plus an
// S-□-reachability chain (Corollary 3.3) ending at a ¬∃1 point. Such
// chains remain valid in every system containing the searched family,
// because adding runs only adds reachability. The chains use the
// nonrigid set 𝒩 ∧ {i : a 0 is recorded in i's view}, whose members
// genuinely satisfy 𝒵¹_i = B^N_i ∃0 in any system (a recorded 0 is
// factual). Hence a successful search certifies the proposition for
// the unrestricted omission-mode system. This mirrors the run
// constructions in the paper's Lemma A.9 and Proposition 6.3 proofs.
package witness

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Report summarizes a Proposition 6.3 certificate search.
type Report struct {
	N, T, H   int
	Patterns  int
	Runs      int
	Checked   int  // (time, nonfaulty processor) pairs examined
	Certified bool // every pair has a non-decision certificate
	// Failures lists the (time, processor) pairs lacking a
	// certificate (empty when Certified).
	Failures []string
}

// String renders the report.
func (r *Report) String() string {
	status := "certified"
	if !r.Certified {
		status = fmt.Sprintf("NOT certified (%d gaps)", len(r.Failures))
	}
	return fmt.Sprintf("Prop 6.3 n=%d t=%d h=%d: %d patterns, %d runs, %d point-checks: %s",
		r.N, r.T, r.H, r.Patterns, r.Runs, r.Checked, status)
}

// Family builds the structured omission-mode adversary family used by
// the search: every faulty set of size at most t where each faulty
// processor's behaviour is drawn from the menu
//
//	invisible | silent from round k | silent except one delivery
//	(round m to dst) | omit one destination in one round (k, dst)
//
// This family contains the run constructions of Lemma A.9 (value
// flips behind silent processors, single late deliveries, a second
// processor failing "towards" one victim).
func Family(n, t, h int) ([]*failures.Pattern, error) {
	if err := (types.Params{N: n, T: t}).Validate(); err != nil {
		return nil, err
	}
	if h < 1 {
		return nil, fmt.Errorf("witness: horizon %d < 1", h)
	}
	menu := func(p types.ProcID) []*failures.Behavior {
		others := types.FullSet(n).Remove(p)
		// A "delivery slot" is (round, destination); the menu is built
		// from silence overlaid with up to two delivery slots, plus
		// single-slot omissions. Two staggered deliveries are what the
		// descent in Lemma A.9's proof needs (hand the 0 to one more
		// processor one round earlier).
		type slot struct {
			k   int
			dst types.ProcID
		}
		var slots []slot
		for k := 1; k <= h; k++ {
			for _, dst := range others.Members() {
				slots = append(slots, slot{k: k, dst: dst})
			}
		}
		silentWith := func(deliver ...slot) *failures.Behavior {
			b := &failures.Behavior{Omit: make([]types.ProcSet, h)}
			for r := 1; r <= h; r++ {
				b.Omit[r-1] = others
			}
			for _, s := range deliver {
				b.Omit[s.k-1] = b.Omit[s.k-1].Remove(s.dst)
			}
			return b
		}
		out := []*failures.Behavior{{}}
		for k := 1; k <= h; k++ {
			// Silent from round k (rounds < k fully delivered).
			b := &failures.Behavior{Omit: make([]types.ProcSet, h)}
			for r := k; r <= h; r++ {
				b.Omit[r-1] = others
			}
			out = append(out, b)
		}
		for i, s := range slots {
			// Silent except one delivery.
			out = append(out, silentWith(s))
			// Omit only dst, only in round k.
			oj := &failures.Behavior{Omit: make([]types.ProcSet, h)}
			oj.Omit[s.k-1] = types.Singleton(s.dst)
			out = append(out, oj)
			// Silent except two deliveries.
			for _, s2 := range slots[i+1:] {
				out = append(out, silentWith(s, s2))
			}
		}
		return out
	}

	var pats []*failures.Pattern
	for _, faulty := range failures.FaultySets(n, t) {
		members := faulty.Members()
		menus := make([][]*failures.Behavior, len(members))
		for i, p := range members {
			menus[i] = menu(p)
		}
		idx := make([]int, len(members))
		for {
			beh := make(map[types.ProcID]*failures.Behavior, len(members))
			for i, p := range members {
				beh[p] = menus[i][idx[i]]
			}
			pat, err := failures.NewPattern(failures.Omission, n, h, faulty, beh)
			if err != nil {
				return nil, err
			}
			pats = append(pats, pat)
			i := 0
			for ; i < len(members); i++ {
				idx[i]++
				if idx[i] < len(menus[i]) {
					break
				}
				idx[i] = 0
			}
			if i == len(members) {
				break
			}
		}
	}
	return pats, nil
}

// CheckProp63 runs the certificate search for Proposition 6.3 with
// the canonical target run: all initial values 1, processor 0 faulty
// and silent from round 1, no other failures. It requires t >= 2 and
// n >= t+2 (the proposition's hypotheses).
func CheckProp63(n, t, h int) (*Report, error) {
	if t < 2 {
		return nil, fmt.Errorf("witness: Proposition 6.3 requires t > 1, got t=%d", t)
	}
	if n < t+2 {
		return nil, fmt.Errorf("witness: Proposition 6.3 requires n >= t+2, got n=%d t=%d", n, t)
	}
	pats, err := Family(n, t, h)
	if err != nil {
		return nil, err
	}
	sys, err := system.FromPatterns(types.Params{N: n, T: t}, failures.Omission, h, pats)
	if err != nil {
		return nil, err
	}
	e := knowledge.NewEvaluator(sys)

	// The target run.
	target := failures.Silent(failures.Omission, n, h, 0, 1)
	allOnes := types.ConfigFromBits(n, (1<<uint(n))-1)
	run, ok := sys.FindRun(allOnes, target.Key())
	if !ok {
		return nil, fmt.Errorf("witness: target run missing from family")
	}

	// 𝒩 ∧ {recorded 0}: a sound under-approximation of 𝒩 ∧ 𝒵¹
	// (𝒵¹_i = B^N_i ∃0; a recorded 0 implies it in any system).
	s := knowledge.Intersect(knowledge.Nonfaulty(),
		knowledge.FromViews("Kn0", func(in *views.Interner, id views.ID) bool {
			return in.Knows(id, types.Zero)
		}))
	cboxTbl := e.Eval(knowledge.CBox(s, knowledge.Exists1()))
	exists1Tbl := e.Eval(knowledge.Exists1())

	rep := &Report{N: n, T: t, H: h, Patterns: len(pats), Runs: sys.NumRuns()}
	nonfaulty := run.Nonfaulty().Members()
	for m := 0; m <= h; m++ {
		for _, i := range nonfaulty {
			rep.Checked++
			// ¬𝒵²_i at (r, m): the point itself is an i∈𝒩 point
			// without ∃0.
			if run.HasValue(types.Zero) {
				rep.Failures = append(rep.Failures, fmt.Sprintf("time %d proc %d: target run has a 0", m, i))
				continue
			}
			// ¬𝒪²_i at (r, m): search the indistinguishability class
			// for an i∈𝒩 point where ∃1 ∧ C□ fails.
			id := run.View(m, i)
			found := false
			for _, qi := range sys.PointIdxWithView(id) {
				if !sys.RunOf(sys.PointAt(int(qi))).Nonfaulty().Contains(i) {
					continue
				}
				if !exists1Tbl.Get(int(qi)) || !cboxTbl.Get(int(qi)) {
					found = true
					break
				}
			}
			if !found {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("time %d proc %d: no ¬C□ witness in class", m, i))
			}
		}
	}
	rep.Certified = len(rep.Failures) == 0
	return rep, nil
}
