package exp

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/multi"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

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
