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
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/witness"
)

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

// E12Distributions runs the concrete protocols over sampled failure
// patterns at larger n, tabulating decision-round distributions.
func E12Distributions() (*Result, error) {
	r := &Result{ID: "E12", Title: "Decision-round distributions",
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
					tr, err := sim.Run(proto, params, types.ConfigFromBits(n, mask), pat)
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
