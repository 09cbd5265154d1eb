package exp

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/multi"
	"github.com/eventual-agreement/eba/internal/sba"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

// E20WasteRule reproduces the theorem behind the paper's repeated
// references to [DM90]: the concrete waste-counting rule
// (decide at min_k (k + t + 1 − N(k)) with N(k) = failures visible by
// round k) coincides exactly with the semantic common-knowledge SBA
// rule on every enumerated crash run — the optimum SBA protocol.
func E20WasteRule() (*Result, error) {
	r := &Result{ID: "E20", Title: "DM90 optimum SBA: the concrete waste rule",
		Claim: "decide at min_k (k + t+1 − N(k)); equals the common-knowledge rule run for run"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"n", "t", "runs", "time mismatches", "value mismatches", "SBA valid"}}
		pass := true
		for _, size := range []struct{ n, t, h int }{{3, 1, 3}, {4, 1, 3}, {4, 2, 4}} {
			sys, err := enumerate(size.n, size.t, failures.Crash, size.h)
			if err != nil {
				return err
			}
			ck := sba.CommonKnowledgeOutcomes(knowledge.NewEvaluator(sys))
			ws := sba.WasteOutcomes(sys, size.t)
			mT, mV := 0, 0
			for i := range ck {
				if !ws[i].Decided || ck[i].Time != ws[i].Time {
					mT++
				} else if ck[i].Value != ws[i].Value {
					mV++
				}
			}
			ok := sba.CheckOutcomes(sys, ws) == nil
			pass = pass && mT == 0 && mV == 0 && ok
			tbl.Add(fmt.Sprintf("%d", size.n), fmt.Sprintf("%d", size.t),
				fmt.Sprintf("%d", len(ck)), fmt.Sprintf("%d", mT), fmt.Sprintf("%d", mV),
				fmt.Sprintf("%v", ok))
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = "exact agreement between the concrete rule and the knowledge-level optimum"
		return nil
	})
}

// E21Coordination exercises the Section 7 remark that the results
// extend to general coordination problems: the construction and the
// optimality oracle, generalized over arbitrary run-constant enabling
// facts, solve the "biased" problem (decide 1 only on unanimous
// ones). The biased problem has no full decision property — a value
// taken to the grave blocks both actions — so the optimum is a
// nontrivial agreement protocol with an information-theoretic gap.
func E21Coordination() (*Result, error) {
	r := &Result{ID: "E21", Title: "General coordination problems (Sec 7)",
		Claim: "the construction and Thm 5.3 oracle generalize over enabling facts"}
	return timer(r, func() error {
		spec := core.Spec{
			Name: "biased",
			Phi0: knowledge.Exists0(),
			Phi1: knowledge.Not(knowledge.Exists0()),
		}
		tbl := &Table{Header: []string{"mode", "agreement", "enabling", "optimal", "fixed point", "undecided (nonfaulty, info-gap)"}}
		pass := true
		for _, mode := range []failures.Mode{failures.Crash, failures.Omission} {
			sys, err := enumerate(3, 1, mode, 3)
			if err != nil {
				return err
			}
			e := knowledge.NewEvaluator(sys)
			if err := spec.Validate(e); err != nil {
				return err
			}
			flam := fip.Pair{Name: "FΛ", Z: fip.Empty("z"), O: fip.Empty("o")}
			opt := core.TwoStepSpec(e, spec, flam)
			agree := core.CheckWeakAgreement(sys, opt) == nil
			enab := core.CheckEnabling(e, spec, opt) == nil
			isOpt, _ := core.IsOptimalSpec(e, spec, opt)
			fixed := core.EqualOn(sys, opt, core.TwoStepSpec(e, spec, opt))
			undecided := 0
			for ri := 0; ri < sys.NumRuns(); ri++ {
				run := sys.Run(ri)
				for _, proc := range run.Nonfaulty().Members() {
					if _, _, ok := fip.DecisionAt(sys, opt, run, proc); !ok {
						undecided++
					}
				}
			}
			pass = pass && agree && enab && isOpt && fixed && undecided > 0
			tbl.Add(mode.String(), fmt.Sprintf("%v", agree), fmt.Sprintf("%v", enab),
				fmt.Sprintf("%v", isOpt), fmt.Sprintf("%v", fixed), fmt.Sprintf("%d", undecided))
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = "biased coordination solved optimally; undecidedness confined to hidden-value runs"
		return nil
	})
}

// E19Multivalued exercises the Section 2.1 remark that extending the
// methods beyond binary votes is straightforward: the ternary
// MinChain protocol achieves eventual agreement within f+1 rounds
// under sending omissions on every enumerated run, while the
// multivalued FloodMin is simultaneous-and-correct in the crash mode
// and unsafe under omissions (the multivalued analogue of P0's
// failure).
func E19Multivalued() (*Result, error) {
	r := &Result{ID: "E19", Title: "Multivalued agreement (Sec 2.1 general case)",
		Claim: "the chain discipline generalizes per value; min-decide at the first clean round"}
	return timer(r, func() error {
		const n, t, h, k = 3, 1, 3, 3
		configs := func() []types.Config {
			var out []types.Config
			for code := 0; code < k*k*k; code++ {
				cfg := make(types.Config, n)
				c := code
				for i := 0; i < n; i++ {
					cfg[i] = types.Value(c % k)
					c /= k
				}
				out = append(out, cfg)
			}
			return out
		}()

		type agg struct {
			runs, undecided, disagreements, invalid, lateBound int
		}
		sweep := func(p sim.Protocol, pats []*failures.Pattern, boundF bool) (agg, error) {
			var a agg
			for _, pat := range pats {
				f := pat.VisiblyFaulty().Len()
				for _, cfg := range configs {
					tr, err := sim.Run(p, types.Params{N: n, T: t}, cfg, pat)
					if err != nil {
						return a, err
					}
					a.runs++
					agreed := types.Unset
					for _, q := range pat.Nonfaulty().Members() {
						v, at, ok := tr.DecisionOf(q)
						if !ok {
							a.undecided++
							continue
						}
						if boundF && int(at) > f+1 {
							a.lateBound++
						}
						if agreed == types.Unset {
							agreed = v
						} else if agreed != v {
							a.disagreements++
						}
					}
					if v, same := cfg.AllEqual(); same && agreed != v {
						a.invalid++
					}
				}
			}
			return a, nil
		}

		crashPats, err := failures.EnumCrash(n, t, h)
		if err != nil {
			return err
		}
		omitPats, err := failures.EnumOmission(n, t, h, 0)
		if err != nil {
			return err
		}

		fmCrash, err := sweep(multi.FloodMin(), crashPats, false)
		if err != nil {
			return err
		}
		mcOmit, err := sweep(multi.MinChain(), omitPats, true)
		if err != nil {
			return err
		}
		fmOmit, err := sweep(multi.FloodMin(), omitPats, false)
		if err != nil {
			return err
		}

		tbl := &Table{Header: []string{"protocol", "mode", "runs", "undecided", "disagreements", "invalid", "past f+1"}}
		add := func(name, mode string, a agg) {
			tbl.Add(name, mode, fmt.Sprintf("%d", a.runs), fmt.Sprintf("%d", a.undecided),
				fmt.Sprintf("%d", a.disagreements), fmt.Sprintf("%d", a.invalid), fmt.Sprintf("%d", a.lateBound))
		}
		add("FloodMin", "crash", fmCrash)
		add("MinChain", "omission", mcOmit)
		add("FloodMin", "omission", fmOmit)

		r.Table = tbl
		r.Pass = fmCrash.undecided == 0 && fmCrash.disagreements == 0 && fmCrash.invalid == 0 &&
			mcOmit.undecided == 0 && mcOmit.disagreements == 0 && mcOmit.invalid == 0 && mcOmit.lateBound == 0 &&
			fmOmit.disagreements > 0
		r.Summary = fmt.Sprintf("MinChain clean over %d ternary omission runs; FloodMin breaks in %d omission runs",
			mcOmit.runs, fmOmit.disagreements)
		return nil
	})
}
