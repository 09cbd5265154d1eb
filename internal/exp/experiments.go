package exp

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/sba"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/transport"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
	"github.com/eventual-agreement/eba/internal/witness"
)

// E1NoOptimum reproduces Proposition 2.1: P0 and P1 are both EBA
// protocols, each decides at time 0 on its favourable unanimous
// configuration, and neither dominates the other — so no optimum EBA
// protocol can exist.
func E1NoOptimum() (*Result, error) {
	r := &Result{ID: "E1", Title: "No optimum EBA protocol",
		Claim: "P0 and P1 are incomparable; an optimum would decide everything at time 0, impossible"}
	return timer(r, func() error {
		sys, err := enumerate(4, 1, failures.Crash, 3)
		if err != nil {
			return err
		}
		p0, p1 := protocols.P0Pair(1), protocols.P1Pair(1)
		if err := core.CheckEBA(sys, p0); err != nil {
			return err
		}
		if err := core.CheckEBA(sys, p1); err != nil {
			return err
		}
		d01 := core.Dominates(sys, p0, p1)
		d10 := core.Dominates(sys, p1, p0)

		tbl := &Table{Header: []string{"config", "protocol", "first decision", "last decision"}}
		ffKey := failures.FailureFree(failures.Crash, 4, 3).Key()
		for _, cfgBits := range []uint64{0, 0b1111} {
			cfg := types.ConfigFromBits(4, cfgBits)
			run, ok := sys.FindRun(cfg, ffKey)
			if !ok {
				return fmt.Errorf("exp: failure-free run missing")
			}
			for _, p := range []fip.Pair{p0, p1} {
				first, last := types.Round(1<<30), types.Round(-1)
				for proc := 0; proc < 4; proc++ {
					_, at, ok := fip.DecisionAt(sys, p, run, types.ProcID(proc))
					if !ok {
						continue
					}
					if at < first {
						first = at
					}
					if at > last {
						last = at
					}
				}
				tbl.Add(cfg.String(), p.Name, fmt.Sprintf("%d", first), fmt.Sprintf("%d", last))
			}
		}
		r.Table = tbl
		r.Pass = !d01 && !d10
		r.Summary = fmt.Sprintf("P0 dominates P1: %v; P1 dominates P0: %v (want false/false)", d01, d10)
		return nil
	})
}

// E2Dominance reproduces the Section 2.2 example: P0opt dominates P0,
// strictly, while deciding 0 exactly as fast.
func E2Dominance() (*Result, error) {
	r := &Result{ID: "E2", Title: "P0opt strictly dominates P0",
		Claim: "P0opt decides 1 as soon as possible without changing P0's rule for 0"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"protocol", "decision time", "nonfaulty decisions"}}
		pass := true
		var summary string
		for _, size := range []struct{ n, t int }{{4, 1}, {4, 2}} {
			sys, err := enumerate(size.n, size.t, failures.Crash, size.t+2)
			if err != nil {
				return err
			}
			p0 := protocols.P0Pair(size.t)
			p0opt := protocols.P0OptPair()
			strict := core.StrictlyDominates(sys, p0opt, p0)
			back := core.Dominates(sys, p0, p0opt)
			pass = pass && strict && !back
			summary += fmt.Sprintf("n=%d t=%d: strict=%v reverse=%v; ", size.n, size.t, strict, back)
			histRows(tbl, fmt.Sprintf("P0(n=%d,t=%d)", size.n, size.t), core.DecisionHistogram(sys, p0))
			histRows(tbl, fmt.Sprintf("P0opt(n=%d,t=%d)", size.n, size.t), core.DecisionHistogram(sys, p0opt))
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = summary + "(want strict=true, reverse=false)"
		return nil
	})
}

// E3S5Axioms verifies Proposition 3.1 over a formula battery in both
// failure modes, counting violations (zero expected).
func E3S5Axioms() (*Result, error) {
	r := &Result{ID: "E3", Title: "S5 axioms of knowledge",
		Claim: "K_i satisfies the S5 properties in every system"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"mode", "axiom", "instances", "violations"}}
		violations := 0
		for _, mode := range []failures.Mode{failures.Crash, failures.Omission} {
			sys, err := enumerate(3, 1, mode, 2)
			if err != nil {
				return err
			}
			e := knowledge.NewEvaluator(sys)
			phis := []knowledge.Formula{
				knowledge.Exists0(), knowledge.Exists1(),
				knowledge.And(knowledge.Exists0(), knowledge.Not(knowledge.IsNonfaulty(0))),
				knowledge.InitialIs(1, types.One),
			}
			axioms := map[string]func(i types.ProcID, phi knowledge.Formula) knowledge.Formula{
				"T: Kφ⇒φ": func(i types.ProcID, phi knowledge.Formula) knowledge.Formula {
					return knowledge.Implies(knowledge.K(i, phi), phi)
				},
				"4: Kφ⇒KKφ": func(i types.ProcID, phi knowledge.Formula) knowledge.Formula {
					return knowledge.Implies(knowledge.K(i, phi), knowledge.K(i, knowledge.K(i, phi)))
				},
				"5: ¬Kφ⇒K¬Kφ": func(i types.ProcID, phi knowledge.Formula) knowledge.Formula {
					return knowledge.Implies(knowledge.Not(knowledge.K(i, phi)), knowledge.K(i, knowledge.Not(knowledge.K(i, phi))))
				},
				"K: Kφ∧K(φ⇒ψ)⇒Kψ": func(i types.ProcID, phi knowledge.Formula) knowledge.Formula {
					psi := knowledge.Exists1()
					return knowledge.Implies(
						knowledge.And(knowledge.K(i, phi), knowledge.K(i, knowledge.Implies(phi, psi))),
						knowledge.K(i, psi))
				},
			}
			for name, mk := range axioms {
				count, bad := 0, 0
				for i := types.ProcID(0); i < 3; i++ {
					for _, phi := range phis {
						count++
						if !e.Valid(mk(i, phi)) {
							bad++
						}
					}
				}
				violations += bad
				tbl.Add(mode.String(), name, fmt.Sprintf("%d", count), fmt.Sprintf("%d", bad))
			}
		}
		r.Table = tbl
		r.Pass = violations == 0
		r.Summary = fmt.Sprintf("%d violations (want 0)", violations)
		return nil
	})
}

// E4CBoxAxioms verifies Lemma 3.4 for C□ over nonrigid sets including
// decision-set intersections.
func E4CBoxAxioms() (*Result, error) {
	r := &Result{ID: "E4", Title: "Axioms of continual common knowledge",
		Claim: "C□_S satisfies K45, the fixed-point axiom, and □̂-invariance"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"mode", "set", "axiom", "violations"}}
		violations := 0
		for _, mode := range []failures.Mode{failures.Crash, failures.Omission} {
			sys, err := enumerate(3, 1, mode, 2)
			if err != nil {
				return err
			}
			e := knowledge.NewEvaluator(sys)
			nf := knowledge.Nonfaulty()
			knows0 := knowledge.Intersect(nf, knowledge.FromViews("Kn0",
				func(in *views.Interner, id views.ID) bool { return in.Knows(id, types.Zero) }))
			for _, s := range []knowledge.NonrigidSet{nf, knows0} {
				for _, phi := range []knowledge.Formula{knowledge.Exists0(), knowledge.Exists1()} {
					cb := knowledge.CBox(s, phi)
					checks := map[string]knowledge.Formula{
						"4":  knowledge.Implies(cb, knowledge.CBox(s, cb)),
						"5":  knowledge.Implies(knowledge.Not(cb), knowledge.CBox(s, knowledge.Not(cb))),
						"fp": knowledge.Implies(cb, knowledge.EBox(s, knowledge.And(phi, cb))),
						"□̂": knowledge.Implies(cb, knowledge.Box(cb)),
					}
					for name, f := range checks {
						bad := 0
						if !e.Valid(f) {
							bad = 1
							violations++
						}
						tbl.Add(mode.String(), s.Name(), name+" "+phi.String(), fmt.Sprintf("%d", bad))
					}
				}
			}
		}
		r.Table = tbl
		r.Pass = violations == 0
		r.Summary = fmt.Sprintf("%d violations (want 0)", violations)
		return nil
	})
}

// E5StrictlyStronger verifies C□φ ⇒ C_Sφ and counts the points
// separating the two operators.
func E5StrictlyStronger() (*Result, error) {
	r := &Result{ID: "E5", Title: "C□ strictly stronger than C",
		Claim: "C□_𝒩 φ ⇒ C_𝒩 φ is valid; the converse fails"}
	return timer(r, func() error {
		sys, err := enumerate(3, 1, failures.Crash, 2)
		if err != nil {
			return err
		}
		e := knowledge.NewEvaluator(sys)
		nf := knowledge.Nonfaulty()
		tbl := &Table{Header: []string{"fact", "C true at", "C□ true at", "separating points"}}
		pass := true
		for _, phi := range []knowledge.Formula{knowledge.Exists0(), knowledge.Exists1()} {
			c := e.Eval(knowledge.C(nf, phi))
			cb := e.Eval(knowledge.CBox(nf, phi))
			sep := 0
			for i := 0; i < c.Len(); i++ {
				if cb.Get(i) && !c.Get(i) {
					pass = false
				}
				if c.Get(i) && !cb.Get(i) {
					sep++
				}
			}
			tbl.Add(phi.String(), fmt.Sprintf("%d", c.Count()), fmt.Sprintf("%d", cb.Count()), fmt.Sprintf("%d", sep))
			if sep == 0 {
				pass = false
			}
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = "implication valid, with separating points in both facts"
		return nil
	})
}

// E6CrashOptimal reproduces Theorems 6.1/6.2: the two-step
// construction from F^Λ equals P0opt at nonfaulty states, is an
// optimal EBA protocol, and a further step is a no-op.
func E6CrashOptimal() (*Result, error) {
	r := &Result{ID: "E6", Title: "Two-step optimum = P0opt (crash)",
		Claim: "F^Λ,2 = FIP(𝒵^cr, 𝒪^cr) ≡ P0opt; both optimal EBA"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"n", "t", "equal to P0opt", "EBA", "optimal", "fixed point", "worst case"}}
		pass := true
		for _, size := range []struct{ n, t int }{{3, 1}, {4, 1}, {5, 1}} {
			sys, err := enumerate(size.n, size.t, failures.Crash, 3)
			if err != nil {
				return err
			}
			e := knowledge.NewEvaluator(sys)
			flam := fip.Pair{Name: "FΛ", Z: fip.Empty("z"), O: fip.Empty("o")}
			f2 := core.TwoStep(e, flam)
			equal, _ := core.EqualOnNonfaulty(sys, f2, protocols.P0OptPair())
			ebaOK := core.CheckEBA(sys, f2) == nil
			opt, _ := core.IsOptimal(e, f2)
			fixed := core.EqualOn(sys, f2, core.TwoStep(e, f2))
			pass = pass && equal && ebaOK && opt && fixed
			tbl.Add(fmt.Sprintf("%d", size.n), fmt.Sprintf("%d", size.t),
				fmt.Sprintf("%v", equal), fmt.Sprintf("%v", ebaOK), fmt.Sprintf("%v", opt),
				fmt.Sprintf("%v", fixed), maxRound(sys, f2))
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = "all columns true, worst case t+1"
		return nil
	})
}

// E7OmissionNontermination runs the Proposition 6.3 certificate
// search at n=4, t=2.
func E7OmissionNontermination() (*Result, error) {
	r := &Result{ID: "E7", Title: "F^Λ,2 non-termination under omissions",
		Claim: "with t > 1, n ≥ t+2 there are omission runs where nonfaulty processors never decide"}
	return timer(r, func() error {
		rep, err := witness.CheckProp63(4, 2, 3)
		if err != nil {
			return err
		}
		tbl := &Table{Header: []string{"patterns", "runs", "point checks", "certified"}}
		tbl.Add(fmt.Sprintf("%d", rep.Patterns), fmt.Sprintf("%d", rep.Runs),
			fmt.Sprintf("%d", rep.Checked), fmt.Sprintf("%v", rep.Certified))
		r.Table = tbl
		r.Pass = rep.Certified
		r.Summary = rep.String()
		return nil
	})
}

// E8ChainBound reproduces Proposition 6.4: in omission runs with f
// visible failures, the chain protocol decides by time f+1.
func E8ChainBound() (*Result, error) {
	r := &Result{ID: "E8", Title: "Chain protocol decides by f+1",
		Claim: "FIP(𝒵⁰, 𝒪⁰) is an EBA protocol; nonfaulty decide by time f+1"}
	return timer(r, func() error {
		sys, err := enumerate(3, 1, failures.Omission, 3)
		if err != nil {
			return err
		}
		e := knowledge.NewEvaluator(sys)
		pair := protocols.Chain0SemanticPair(e)
		if err := core.CheckEBA(sys, pair); err != nil {
			return err
		}
		tbl := &Table{Header: []string{"source", "f (visible failures)", "max decision round", "bound f+1", "ok"}}
		pass := true
		bounds := core.FMaxDecisionBound(sys, pair)
		for f := 0; f <= sys.Params.T; f++ {
			max, present := bounds[f]
			if !present {
				continue
			}
			ok := int(max) <= f+1
			pass = pass && ok
			tbl.Add("exhaustive n=3 t=1 (semantic)", fmt.Sprintf("%d", f),
				fmt.Sprintf("%d", max), fmt.Sprintf("%d", f+1), fmt.Sprintf("%v", ok))
		}

		// Sampled t=2 at n=5 with the concrete certificate-passing
		// implementation: the f+1 bound must also hold at f = 2.
		rng := newRand(97)
		pats, err := failures.SampleOmission(5, 2, 4, 300, rng)
		if err != nil {
			return err
		}
		params := types.Params{N: 5, T: 2}
		maxByF := map[int]types.Round{}
		for _, pat := range pats {
			f := pat.VisiblyFaulty().Len()
			for _, mask := range []uint64{0, 1, 0b11111, 0b10101} {
				tr, err := sim.Run(protocols.Chain0(), params, types.ConfigFromBits(5, mask), pat)
				if err != nil {
					return err
				}
				for _, proc := range pat.Nonfaulty().Members() {
					_, at, ok := tr.DecisionOf(proc)
					if !ok {
						at = types.Round(pat.Horizon() + 1)
					}
					if at > maxByF[f] {
						maxByF[f] = at
					}
				}
			}
		}
		for f := 0; f <= 2; f++ {
			max, present := maxByF[f]
			if !present {
				continue
			}
			ok := int(max) <= f+1
			pass = pass && ok
			tbl.Add("sampled n=5 t=2 (concrete)", fmt.Sprintf("%d", f),
				fmt.Sprintf("%d", max), fmt.Sprintf("%d", f+1), fmt.Sprintf("%v", ok))
		}

		r.Table = tbl
		r.Pass = pass
		r.Summary = "max decision round within f+1 for every f, exhaustively at t=1 and sampled at t=2"
		return nil
	})
}

// E9OmissionOptimal reproduces Proposition 6.6 and Lemmas A.10/A.11:
// the double-prime step fixes (𝒵⁰, 𝒪⁰), Lemma A.10's equivalence is
// valid, and F* = prime step is an optimal EBA protocol dominating
// the chain protocol.
func E9OmissionOptimal() (*Result, error) {
	r := &Result{ID: "E9", Title: "F* optimal for omissions",
		Claim: "F* = FIP(𝒵*, 𝒪*) is an optimal EBA protocol dominating FIP(𝒵⁰, 𝒪⁰)"}
	return timer(r, func() error {
		sys, err := enumerate(3, 1, failures.Omission, 3)
		if err != nil {
			return err
		}
		e := knowledge.NewEvaluator(sys)
		chain := protocols.Chain0SemanticPair(e)
		nAndZ0 := core.NAnd(chain.Z)
		lemA10 := knowledge.Iff(
			knowledge.CBox(nAndZ0, knowledge.Exists1()),
			knowledge.Box(knowledge.SetEmpty(nAndZ0)))
		a10Valid := e.Valid(lemA10)

		dp := core.DoublePrimeStep(e, chain, "chain''")
		fixed, _ := core.EqualOnNonfaulty(sys, chain, dp)

		fstar := core.PrimeStep(e, chain, "F*")
		ebaOK := core.CheckEBA(sys, fstar) == nil
		dom := core.Dominates(sys, fstar, chain)
		opt, _ := core.IsOptimal(e, fstar)

		tbl := &Table{Header: []string{"check", "result"}}
		tbl.Add("Lemma A.10 equivalence", fmt.Sprintf("%v", a10Valid))
		tbl.Add("double-prime fixes (𝒵⁰,𝒪⁰) (A.10/A.11)", fmt.Sprintf("%v", fixed))
		tbl.Add("F* is EBA", fmt.Sprintf("%v", ebaOK))
		tbl.Add("F* dominates FIP(𝒵⁰,𝒪⁰)", fmt.Sprintf("%v", dom))
		tbl.Add("F* optimal (Thm 5.3)", fmt.Sprintf("%v", opt))
		r.Table = tbl
		r.Pass = a10Valid && fixed && ebaOK && dom && opt
		r.Summary = "all checks true"
		return nil
	})
}

// E10Characterization shows Theorem 5.3 separating optimal from
// non-optimal protocols.
func E10Characterization() (*Result, error) {
	r := &Result{ID: "E10", Title: "Theorem 5.3 separates optimal from non-optimal",
		Claim: "the characterization holds exactly for optimal protocols"}
	return timer(r, func() error {
		crash, err := enumerate(3, 1, failures.Crash, 3)
		if err != nil {
			return err
		}
		ec := knowledge.NewEvaluator(crash)
		omission, err := enumerate(3, 1, failures.Omission, 3)
		if err != nil {
			return err
		}
		eo := knowledge.NewEvaluator(omission)
		chain := protocols.Chain0SemanticPair(eo)
		fstar := core.PrimeStep(eo, chain, "F*")

		tbl := &Table{Header: []string{"protocol", "mode", "expected", "got"}}
		pass := true
		check := func(name string, e *knowledge.Evaluator, p fip.Pair, mode string, want bool) {
			got, _ := core.IsOptimal(e, p)
			pass = pass && got == want
			tbl.Add(name, mode, fmt.Sprintf("%v", want), fmt.Sprintf("%v", got))
		}
		check("P0", ec, protocols.P0Pair(1), "crash", false)
		check("P1", ec, protocols.P1Pair(1), "crash", false)
		check("P0opt", ec, protocols.P0OptPair(), "crash", true)
		check("F*", eo, fstar, "omission", true)
		r.Table = tbl
		r.Pass = pass
		r.Summary = "expected == got on every row"
		return nil
	})
}

// E11WorstCase reproduces the DS82 shape: every protocol has a run in
// which some nonfaulty processor needs t+1 rounds, and the optimal
// protocols need no more.
func E11WorstCase() (*Result, error) {
	r := &Result{ID: "E11", Title: "Worst-case decision takes t+1 rounds",
		Claim: "max over runs of the last nonfaulty decision = t+1"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"protocol", "mode", "t", "worst case", "t+1"}}
		pass := true
		crash, err := enumerate(3, 1, failures.Crash, 3)
		if err != nil {
			return err
		}
		omission, err := enumerate(3, 1, failures.Omission, 3)
		if err != nil {
			return err
		}
		eo := knowledge.NewEvaluator(omission)
		rows := []struct {
			name string
			sys  *system.System
			pair fip.Pair
		}{
			{"P0", crash, protocols.P0Pair(1)},
			{"P0opt", crash, protocols.P0OptPair()},
			{"chain", omission, protocols.Chain0SemanticPair(eo)},
		}
		for _, row := range rows {
			max, all := core.MaxNonfaultyDecisionRound(row.sys, row.pair)
			ok := all && max == types.Round(row.sys.Params.T+1)
			pass = pass && ok
			tbl.Add(row.name, row.sys.Mode.String(), fmt.Sprintf("%d", row.sys.Params.T),
				maxRound(row.sys, row.pair), fmt.Sprintf("%d", row.sys.Params.T+1))
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = "worst case equals t+1 for every protocol"
		return nil
	})
}

// E12Distributions runs the concrete protocols on the goroutine
// runtime over sampled failure patterns at larger n, tabulating
// decision-round distributions.
func E12Distributions() (*Result, error) {
	r := &Result{ID: "E12", Title: "Decision-round distributions (live runtime)",
		Claim: "the shape survives scale: P0opt ≤ P0 everywhere; chain within f+1"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"protocol", "decision time", "nonfaulty decisions"}}
		pass := true

		sample := func(proto sim.Protocol, mode failures.Mode, n, t, h, count int, seed int64) (map[types.Round]int, error) {
			rng := newRand(seed)
			var pats []*failures.Pattern
			var err error
			if mode == failures.Crash {
				pats, err = failures.SampleCrash(n, t, h, count, rng)
			} else {
				pats, err = failures.SampleOmission(n, t, h, count, rng)
			}
			if err != nil {
				return nil, err
			}
			hist := make(map[types.Round]int)
			params := types.Params{N: n, T: t}
			for _, pat := range pats {
				for _, mask := range []uint64{0, 1, (1 << uint(n)) - 1, 0x5} {
					tr, err := transport.Run(proto, params, types.ConfigFromBits(n, mask), pat)
					if err != nil {
						return nil, err
					}
					pat.Nonfaulty().ForEach(func(p types.ProcID) bool {
						if _, at, ok := tr.DecisionOf(p); ok {
							hist[at]++
						} else {
							hist[-1]++
						}
						return true
					})
				}
			}
			return hist, nil
		}

		const n, t, h, count = 7, 2, 4, 40
		for _, row := range []struct {
			name  string
			proto sim.Protocol
			mode  failures.Mode
		}{
			{"P0 (crash)", protocols.LF82(types.Zero), failures.Crash},
			{"P0opt (crash)", protocols.P0Opt(), failures.Crash},
			{"Chain0 (omission)", protocols.Chain0(), failures.Omission},
		} {
			hist, err := sample(row.proto, row.mode, n, t, h, count, 1234)
			if err != nil {
				return err
			}
			if hist[-1] > 0 {
				pass = false
			}
			histRows(tbl, row.name, hist)
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = fmt.Sprintf("n=%d t=%d, %d sampled patterns × 4 configs per protocol; no undecided nonfaulty", n, t, count)
		return nil
	})
}

// E13EBAvsSBA quantifies the DRS90 motivation: the optimal EBA
// protocol's first deciders beat the optimal (common-knowledge) SBA
// rule, which in turn exhibits DM90 waste.
func E13EBAvsSBA() (*Result, error) {
	r := &Result{ID: "E13", Title: "EBA decides before SBA",
		Claim: "eventual protocols typically decide much faster than simultaneous ones"}
	return timer(r, func() error {
		sys, err := enumerate(4, 2, failures.Crash, 4)
		if err != nil {
			return err
		}
		e := knowledge.NewEvaluator(sys)
		outs := sba.CommonKnowledgeOutcomes(e)
		if err := sba.CheckOutcomes(sys, outs); err != nil {
			return err
		}
		p0opt := protocols.P0OptPair()
		cmp := sba.CompareEBA(sys, func(run system.Run) []types.Round {
			var ts []types.Round
			for _, proc := range run.Nonfaulty().Members() {
				if _, at, ok := fip.DecisionAt(sys, p0opt, run, proc); ok {
					ts = append(ts, at)
				}
			}
			return ts
		}, outs)

		// Waste: distribution of SBA decision times (< t+1 happens).
		sbaHist := make(map[types.Round]int)
		for _, out := range outs {
			sbaHist[out.Time]++
		}
		tbl := &Table{Header: []string{"quantity", "value"}}
		tbl.Add("runs where EBA's first decider is earlier", fmt.Sprintf("%d", cmp.EBAEarlierFirst))
		tbl.Add("runs tied", fmt.Sprintf("%d", cmp.Ties))
		tbl.Add("runs where SBA is earlier than every EBA decider", fmt.Sprintf("%d", cmp.SBAEarlierFirst))
		tbl.Add("runs where some EBA decider is later than SBA", fmt.Sprintf("%d", cmp.EBALaterLast))
		for at := types.Round(0); at <= types.Round(sys.Horizon); at++ {
			if c, ok := sbaHist[at]; ok {
				tbl.Add(fmt.Sprintf("SBA decisions at time %d", at), fmt.Sprintf("%d", c))
			}
		}
		r.Table = tbl
		r.Pass = cmp.EBAEarlierFirst > 0 && cmp.SBAEarlierFirst == 0 && sbaHist[types.Round(2)] > 0
		r.Summary = fmt.Sprintf("EBA first-decider earlier in %d runs, never later; SBA waste visible (decisions before t+1)",
			cmp.EBAEarlierFirst)
		return nil
	})
}
