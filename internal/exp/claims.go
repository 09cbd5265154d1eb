package exp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/sba"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Key names one enumerated system: its failure mode and (n, t, h).
type Key struct {
	Mode    failures.Mode
	N, T, H int
}

// Claim is one paper claim about an enumerated system. It is stated
// once, in Claims, and checked by both front ends: ebaexp runs it at
// the paper's sizes in every mode (in the experiment its ID's prefix
// names), ebaconform on every system key its scenarios generate.
type Claim struct {
	ID    string          // "<experiment>/<name>"
	Paper string          // where the paper (or a cited source) states it
	Modes []failures.Mode // the failure modes it is stated for
	NotIn string          // why it is not stated for the other modes
	// Needs, when set, returns why the claim does not apply at a key
	// of one of its modes, or "" when it does.
	Needs func(k Key) string
	// Formula is the claim in the query grammar when it states one
	// formula valid; ebaconform also asks the query engine for it.
	Formula string
	// Check checks one enumerated system through one evaluator; the
	// error carries a counterexample.
	Check func(sys *system.System, ev *knowledge.Evaluator) error
}

// NA returns why c does not apply at k, or "" when it does.
func (c Claim) NA(k Key) string {
	if !slices.Contains(c.Modes, k.Mode) {
		return c.NotIn
	}
	if c.Needs != nil {
		return c.Needs(k)
	}
	return ""
}

type (
	check  = func(sys *system.System, ev *knowledge.Evaluator) error
	pairOf = func(ev *knowledge.Evaluator) fip.Pair
)

var (
	all          = failures.Modes
	crashOnly    = []failures.Mode{failures.Crash}
	sendingFault = []failures.Mode{failures.Crash, failures.Omission, failures.GeneralOmission}
)

// Why a claim is not stated: reasons shared by several claims.
const (
	p0Crash   = "P0, P1 and P0opt are crash protocols: a hidden 0 breaks them under omissions (Sec 2.2)"
	noSending = "no sending faults: every nonfaulty processor hears every value in round 1, so none is hidden and DS82's t+1 bound does not arise"
)

// unless returns why when ok is false: the shape of every Needs.
func unless(ok bool, why string) string {
	if ok {
		return ""
	}
	return why
}

func byTPlus1(k Key) string {
	return unless(k.H >= k.T+1, "h < t+1: decisions due at time t+1 fall past the horizon")
}

func someFaulty(k Key) string { return unless(k.T > 0, "t = 0: no run has a faulty processor") }

// nAboveTPlus1 scopes a result about time t+1 that assumes n ≥ t+2.
func nAboveTPlus1(src string) func(Key) string {
	return func(k Key) string {
		return cmp.Or(unless(k.T <= k.N-2, "t > n-2: "+src+" assumes n ≥ t+2"), byTPlus1(k))
	}
}

// p0optMatches scopes Thm 6.2's P0opt to where its two-round rule
// matches FΛ².
func p0optMatches(k Key) string {
	return unless(k.T == 0 || (k.T == 1 && k.N > 2),
		"t ≥ 2 or t = n-1: FΛ² decides once t crashes are seen, P0opt waits for two equal rounds (measured)")
}

// Law is the claim that src, in the query grammar, is valid in every
// mode.
func Law(id, paper, src string) Claim {
	return Claim{ID: id, Paper: paper, Modes: all, Formula: src,
		Check: func(_ *system.System, ev *knowledge.Evaluator) error {
			f, err := knowledge.Parse(src)
			if err != nil {
				return err
			}
			return valid(ev, f)
		}}
}

// valid returns nil when every formula holds at every point, else the
// first failing point of the first failing formula.
func valid(ev *knowledge.Evaluator, fs ...knowledge.Formula) error {
	for _, f := range fs {
		if pt, bad := ev.FailingPoint(f); bad {
			run := ev.System().RunOf(pt)
			return fmt.Errorf("%s fails at run %d time %d (cfg %s, pattern %s)", f, pt.Run, pt.Time, run.Config(), run.Pattern())
		}
	}
	return nil
}

// Optimum is the claim of Thms 5.2 and 5.3 about construct(seed): it
// passes the optimality oracle, dominates the seed, satisfies weak
// agreement and weak validity, is monotone, and the two-step
// construction leaves its decisions unchanged.
func Optimum(id, paper string, seed pairOf, construct func(*knowledge.Evaluator, fip.Pair) fip.Pair) Claim {
	return Claim{ID: id, Paper: paper, Modes: all,
		Check: func(sys *system.System, ev *knowledge.Evaluator) error {
			in := seed(ev)
			out := construct(ev, in)
			if err := optimal(ev, out); err != nil {
				return err
			}
			dt := core.Decisions(sys, out)
			if !dt.Dominates(core.Decisions(sys, in)) {
				return fmt.Errorf("%s does not dominate %s", out.Name, in.Name)
			}
			if err := errors.Join(dt.CheckWeakAgreement(), dt.CheckWeakValidity(), fip.Monotone(sys, out)); err != nil {
				return err
			}
			if !core.EqualOn(sys, out, core.TwoStep(ev, out)) {
				return fmt.Errorf("the two-step construction changes %s's decisions", out.Name)
			}
			return nil
		}}
}

func optimal(ev *knowledge.Evaluator, p fip.Pair) error {
	if ok, cex := core.IsOptimal(ev, p); !ok {
		return fmt.Errorf("%s fails Thm 5.3: %s", p.Name, cex)
	}
	return nil
}

func isEBA(p pairOf) check {
	return func(sys *system.System, ev *knowledge.Evaluator) error { return core.CheckEBA(sys, p(ev)) }
}

// lastDecisionAt checks the latest decision of any nonfaulty
// processor; t1 asks for time t+1, otherwise time 1.
func lastDecisionAt(p pairOf, t1 bool) check {
	return func(sys *system.System, ev *knowledge.Evaluator) error {
		want := 1
		if t1 {
			want = sys.Params.T + 1
		}
		pair := p(ev)
		switch last, decided := core.MaxNonfaultyDecisionRound(sys, pair); {
		case !decided:
			return fmt.Errorf("%s: some nonfaulty processor never decides", pair.Name)
		case int(last) != want:
			return fmt.Errorf("%s: latest nonfaulty decision at time %d, want %d", pair.Name, last, want)
		}
		return nil
	}
}

// uniform checks weak agreement and whether agreement is also uniform.
func uniform(p pairOf, want bool) check {
	return func(sys *system.System, ev *knowledge.Evaluator) error {
		pair := p(ev)
		if err := core.CheckWeakAgreement(sys, pair); err != nil {
			return err
		}
		if got := core.CheckUniformAgreement(sys, pair) == nil; got != want {
			return fmt.Errorf("%s: uniform agreement %v, want %v", pair.Name, got, want)
		}
		return nil
	}
}

func sameOnNonfaulty(a, b pairOf) check {
	return func(sys *system.System, ev *knowledge.Evaluator) error {
		if ok, diff := core.EqualOnNonfaulty(sys, a(ev), b(ev)); !ok {
			return errors.New(diff)
		}
		return nil
	}
}

func flam(*knowledge.Evaluator) fip.Pair {
	return fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
}

func twoStepFΛ(ev *knowledge.Evaluator) fip.Pair { return core.TwoStep(ev, flam(ev)) }
func p0(ev *knowledge.Evaluator) fip.Pair        { return protocols.P0Pair(ev.System().Params.T) }
func p1(ev *knowledge.Evaluator) fip.Pair        { return protocols.P1Pair(ev.System().Params.T) }
func p0opt(*knowledge.Evaluator) fip.Pair        { return protocols.P0OptPair() }
func prime(ev *knowledge.Evaluator, p fip.Pair) fip.Pair {
	return core.PrimeStep(ev, p, "F*")
}

// floodSet decides at time t+1, simultaneously: 0 on having seen a 0.
func floodSet(ev *knowledge.Evaluator) fip.Pair {
	t := ev.System().Params.T
	at := func(zero bool) fip.DecisionSet {
		return fip.FromPred(fmt.Sprintf("flood.%v", zero), func(in *views.Interner, id views.ID) bool {
			return int(in.Time(id)) >= t+1 && in.Knows(id, types.Zero) == zero
		})
	}
	return fip.Pair{Name: "FloodSet@t+1", Z: at(true), O: at(false)}
}

// biased is Section 7's coordination problem: act 1 only on unanimous
// ones.
var biased = core.Spec{Name: "biased", Phi0: knowledge.Exists0(), Phi1: knowledge.Not(knowledge.Exists0())}

func biasedOpt(ev *knowledge.Evaluator) fip.Pair { return core.TwoStepSpec(ev, biased, flam(ev)) }

// believes0 is 𝒩 ∧ B∃0*, the set A3/iterative checks besides 𝒩.
var believes0 = knowledge.Intersect(knowledge.Nonfaulty(), knowledge.FromViews("B∃0*",
	func(in *views.Interner, id views.ID) bool { return in.BelievesExistsZeroStar(id) }))

// Claims is the registry, in experiment order.
func Claims() []Claim {
	nf := knowledge.Nonfaulty()
	e0, e1 := knowledge.Exists0(), knowledge.Exists1()
	facts := []knowledge.Formula{e0, e1}
	k, not, implies, iff := knowledge.K, knowledge.Not, knowledge.Implies, knowledge.Iff

	knows0 := knowledge.Intersect(nf, knowledge.FromViews("Kn0",
		func(in *views.Interner, id views.ID) bool { return in.Knows(id, types.Zero) }))
	p0Optimum := Optimum("E6/P0-optimum", "Thms 5.2, 5.3", p0, core.TwoStep)
	p0Optimum.Modes, p0Optimum.NotIn, p0Optimum.Needs = crashOnly, p0Crash, byTPlus1
	fStarOptimum := Optimum("E9/F*", "Prop 6.6", protocols.Chain0SemanticPair, prime)
	fStarOptimum.Needs = func(k Key) string {
		return unless(2*k.T <= k.N, "t > n/2: TwoStep(F*) decides 1 where F* decides 0, as early (measured; cf. arXiv:2305.06271)")
	}

	return []Claim{
		{ID: "E1/no-optimum", Paper: "Prop 2.1", Modes: crashOnly, NotIn: p0Crash, Needs: byTPlus1,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				a, b := p0(ev), p1(ev)
				if err := errors.Join(core.CheckEBA(sys, a), core.CheckEBA(sys, b)); err != nil {
					return err
				}
				if d01, d10 := core.Dominates(sys, a, b), core.Dominates(sys, b, a); d01 || d10 {
					return fmt.Errorf("P0 dominates P1: %v, P1 dominates P0: %v", d01, d10)
				}
				return nil
			}},
		{ID: "E2/P0opt-beats-P0", Paper: "Sec 2.2", Modes: crashOnly, NotIn: p0Crash, Needs: someFaulty,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				if !core.StrictlyDominates(sys, p0opt(ev), p0(ev)) || core.Dominates(sys, p0(ev), p0opt(ev)) {
					return errors.New("P0opt does not strictly dominate P0")
				}
				return nil
			}},

		{ID: "E3/S5", Paper: "Prop 3.1 (T, 4, 5, K for every K_i)", Modes: all,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				var fs []knowledge.Formula
				for i := types.ProcID(0); int(i) < sys.Params.N; i++ {
					for _, phi := range []knowledge.Formula{e0, e1, knowledge.And(e0, not(knowledge.IsNonfaulty(0))), knowledge.InitialIs(1, types.One)} {
						ki := k(i, phi)
						fs = append(fs, implies(ki, phi), implies(ki, k(i, ki)), implies(not(ki), k(i, not(ki))),
							implies(knowledge.And(ki, k(i, implies(phi, e1))), k(i, e1)))
					}
				}
				return valid(ev, fs...)
			}},
		Law("E3/E-to-B", "Sec 3.1 (B^S_i φ = K_i(i∈S ⇒ φ))", "(E E1 & nf0) -> B0 E1"),
		Law("E3/B-truth", "Sec 3.1 (B^S_i φ = K_i(i∈S ⇒ φ))", "(B0 E1 & nf0) -> E1"),

		{ID: "E4/axioms", Paper: "Lemma 3.4, Cor 3.3 (C□C□φ ⇔ C□φ, 5, C□φ ⇔ E□(φ ∧ C□φ), C□φ ⇒ □̂C□φ)", Modes: all,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				var fs []knowledge.Formula
				for _, s := range []knowledge.NonrigidSet{nf, knows0} {
					for _, phi := range facts {
						cb := knowledge.CBox(s, phi)
						fs = append(fs, iff(cb, knowledge.CBox(s, cb)), implies(not(cb), knowledge.CBox(s, not(cb))),
							iff(cb, knowledge.EBox(s, knowledge.And(phi, cb))), implies(cb, knowledge.Box(cb)))
					}
				}
				return valid(ev, fs...)
			}},
		{ID: "E4/run-restriction", Paper: "Cor 3.3 (fewer runs, more C□)", Modes: all, Check: restrictionKeepsCBox},

		Law("E5/C□-to-C", "Sec 3.3", "(Cbox E0 -> C E0) & (Cbox E1 -> C E1)"),
		{ID: "E5/C-not-to-C□", Paper: "Sec 3.3", Modes: all,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				for _, phi := range facts {
					if !ev.Eval(knowledge.And(knowledge.C(nf, phi), not(knowledge.CBox(nf, phi)))).Any() {
						return fmt.Errorf("no point has C_𝒩 %s without C□_𝒩 %s", phi, phi)
					}
				}
				return nil
			}},
		Law("E5/C□-to-E□", "Lemma 3.4", "Cbox E0 -> box E E0"),
		Law("E5/E□-to-E", "Lemma 3.4", "box E E0 -> E E0"),
		Law("E5/C-to-E", "Sec 3.1", "C E0 -> E E0"),
		Law("E5/C-public", "Sec 3.1 (C φ ⇒ E C φ)", "C E1 -> E C E1"),
		Law("E5/C-idempotent", "Sec 3.1 (C C φ ⇔ C φ)", "C C E1 <-> C E1"),

		{ID: "E6/equals-P0opt", Paper: "Thms 6.1, 6.2", Modes: crashOnly, NotIn: p0Crash, Needs: p0optMatches,
			Check: sameOnNonfaulty(twoStepFΛ, p0opt)},
		{ID: "E6/EBA", Paper: "Thm 6.2", Modes: all, Needs: byTPlus1, Check: isEBA(twoStepFΛ)},
		Optimum("E6/optimum", "Thms 5.2, 5.3", flam, core.TwoStep),
		p0Optimum,
		{ID: "E6/P0-EBA", Paper: "Thm 5.2", Modes: crashOnly, NotIn: p0Crash, Needs: byTPlus1,
			Check: isEBA(func(ev *knowledge.Evaluator) fip.Pair { return core.TwoStep(ev, p0(ev)) })},

		{ID: "E9/chain-EBA", Paper: "Prop 6.4", Modes: all, Needs: byTPlus1, Check: isEBA(protocols.Chain0SemanticPair)},
		{ID: "E9/lemma-A.10", Paper: "Lemma A.10", Modes: all,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				nz := core.NAnd(protocols.Chain0SemanticPair(ev).Z)
				return valid(ev, iff(knowledge.CBox(nz, e1), knowledge.Box(knowledge.SetEmpty(nz))))
			}},
		{ID: "E9/double-prime-fixes-chain", Paper: "Lemmas A.10, A.11", Modes: all,
			Check: sameOnNonfaulty(protocols.Chain0SemanticPair, func(ev *knowledge.Evaluator) fip.Pair {
				return core.DoublePrimeStep(ev, protocols.Chain0SemanticPair(ev), "chain''")
			})},
		fStarOptimum,
		{ID: "E9/F*-EBA", Paper: "Prop 6.6", Modes: all, Needs: byTPlus1, Check: isEBA(func(ev *knowledge.Evaluator) fip.Pair { return prime(ev, protocols.Chain0SemanticPair(ev)) })},

		{ID: "E10/P0-P1-not-optimal", Paper: "Thm 5.3", Modes: crashOnly, NotIn: p0Crash, Needs: someFaulty,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				if optimal(ev, p0(ev)) == nil || optimal(ev, p1(ev)) == nil {
					return errors.New("P0 or P1 passes Thm 5.3")
				}
				return nil
			}},
		{ID: "E10/P0opt-optimal", Paper: "Thm 5.3", Modes: crashOnly, NotIn: p0Crash, Needs: p0optMatches,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error { return optimal(ev, p0opt(ev)) }},

		{ID: "E11/P0", Paper: "DS82", Modes: crashOnly, NotIn: p0Crash, Needs: nAboveTPlus1("DS82"), Check: lastDecisionAt(p0, true)},
		{ID: "E11/P0opt", Paper: "DS82", Modes: crashOnly, NotIn: p0Crash, Needs: nAboveTPlus1("DS82"), Check: lastDecisionAt(p0opt, true)},
		{ID: "E11/chain", Paper: "DS82", Modes: sendingFault, NotIn: noSending, Needs: nAboveTPlus1("DS82"),
			Check: lastDecisionAt(protocols.Chain0SemanticPair, true)},
		{ID: "E11/optimum", Paper: "DS82", Modes: sendingFault, NotIn: noSending, Needs: nAboveTPlus1("DS82"),
			Check: lastDecisionAt(twoStepFΛ, true)},
		{ID: "E11/optimum-by-1", Paper: "DS82, no sending faults (measured)", Modes: []failures.Mode{failures.ReceivingOmission},
			NotIn: "sending faults: DS82's t+1 bound applies (E11/optimum)", Check: lastDecisionAt(twoStepFΛ, false)},

		{ID: "E14/F0-agreement", Paper: "Sec 3.2", Modes: all,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				f0 := core.Decisions(sys, core.F0Pair(ev))
				return errors.Join(f0.CheckWeakAgreement(), f0.CheckWeakValidity())
			}},
		Optimum("E14/TwoStep(F0)", "Sec 3.2, Thm 5.2", core.F0Pair, core.TwoStep),
		{ID: "E14/oracle-consistent", Paper: "Thm 5.3", Modes: all,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				f0 := core.F0Pair(ev)
				isOpt, strict := optimal(ev, f0) == nil, core.StrictlyDominates(sys, core.TwoStep(ev, f0), f0)
				if isOpt == strict {
					return fmt.Errorf("F0 optimal: %v, yet TwoStep(F0) strictly improves it: %v", isOpt, strict)
				}
				return nil
			}},
		{ID: "E14/C◇-beliefs-clash", Paper: "Sec 3.2", Modes: all,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				if !ev.Eval(knowledge.And(
					knowledge.B(0, nf, knowledge.CDiamond(nf, e0)), knowledge.B(1, nf, knowledge.CDiamond(nf, e1)),
					knowledge.IsNonfaulty(0), knowledge.IsNonfaulty(1))).Any() {
					return errors.New("no point where nonfaulty 0 believes C◇∃0 while nonfaulty 1 believes C◇∃1")
				}
				return nil
			}},
		{ID: "E14/strict-under-omissions", Paper: "Sec 3.2", Modes: []failures.Mode{failures.Omission, failures.GeneralOmission},
			NotIn: "without sending omissions F0 is already optimal at every generated size (measured)",
			Needs: func(k Key) string {
				return unless(k.T > 0 && k.H >= k.T+2, "t = 0 or h < t+2: the improvement first shows at time t+2 (measured)")
			},
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				if f0 := core.F0Pair(ev); !core.StrictlyDominates(sys, core.TwoStep(ev, f0), f0) {
					return errors.New("TwoStep(F0) does not strictly improve F0")
				}
				return nil
			}},
		{ID: "E14/C◇-fixed-point", Paper: "Prop 3.2 (C◇ φ ⇔ E◇(φ ∧ C◇ φ))", Modes: all,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				cd := knowledge.CDiamond(nf, e0)
				return valid(ev, iff(cd, knowledge.EDiamond(nf, knowledge.And(e0, cd))))
			}},

		{ID: "E16/P0opt-not-uniform", Paper: "Sec 7", Modes: crashOnly, NotIn: p0Crash, Needs: someFaulty, Check: uniform(p0opt, false)},
		{ID: "E16/chain-not-uniform", Paper: "Sec 7", Modes: all, Needs: someFaulty,
			Check: uniform(protocols.Chain0SemanticPair, false)},
		{ID: "E16/FloodSet-uniform", Paper: "Sec 7", Modes: crashOnly,
			NotIn: "FloodSet's clean round by time t+1 needs crash failures (Sec 7)", Check: uniform(floodSet, true)},

		{ID: "E20/waste-rule", Paper: "DM90", Modes: crashOnly, NotIn: "DM90's waste rule counts crashes", Needs: nAboveTPlus1("DM90"),
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				ck, ws := sba.CommonKnowledgeOutcomes(ev), sba.WasteOutcomes(sys, sys.Params.T)
				for r := range ck {
					if ck[r] != ws[r] {
						return fmt.Errorf("run %d (cfg %s, %s): waste rule %+v, common-knowledge rule %+v",
							r, sys.Run(r).Config(), sys.Run(r).Pattern(), ws[r], ck[r])
					}
				}
				return sba.CheckOutcomes(sys, ws)
			}},

		{ID: "E21/biased-optimum", Paper: "Sec 7, Thms 5.2, 5.3", Modes: all,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				opt := biasedOpt(ev)
				if err := errors.Join(biased.Validate(ev), core.CheckWeakAgreement(sys, opt), core.CheckEnabling(ev, biased, opt)); err != nil {
					return err
				}
				if ok, cex := core.IsOptimalSpec(ev, biased, opt); !ok {
					return fmt.Errorf("%s fails Thm 5.3: %s", opt.Name, cex)
				}
				if !core.EqualOn(sys, opt, core.TwoStepSpec(ev, biased, opt)) {
					return errors.New("the two-step construction changes the optimum's decisions")
				}
				return nil
			}},
		{ID: "E21/info-gap", Paper: "Sec 7", Modes: sendingFault, NotIn: noSending, Needs: someFaulty,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				if core.Decisions(sys, biasedOpt(ev)).CheckDecision() == nil {
					return errors.New("every nonfaulty processor decides: no run hides a value")
				}
				return nil
			}},

		{ID: "A3/iterative", Paper: "Cor 3.3", Modes: all,
			Check: func(_ *system.System, ev *knowledge.Evaluator) error {
				for _, s := range []knowledge.NonrigidSet{nf, believes0} {
					for _, phi := range facts {
						if !ev.Eval(knowledge.CBox(s, phi)).Equal(ev.CBoxIterative(s, phi)) {
							return fmt.Errorf("C□_%s %s: reachability differs from the definitional iteration", s.Name(), phi)
						}
					}
				}
				return nil
			}},
		{ID: "A4/converges", Paper: "Sec 3.1 (C φ = ∧_k E^k φ)", Modes: all,
			Check: func(sys *system.System, ev *knowledge.Evaluator) error {
				for _, phi := range facts {
					if depth, ok := ev.CIterConvergence(nf, phi, sys.NumPoints()); !ok {
						return fmt.Errorf("∧_k E^k %s has not reached C_𝒩 %s at depth %d", phi, phi, depth)
					}
				}
				return nil
			}},
	}
}

// restrictionKeepsCBox checks Cor 3.3's monotonicity: C□ is an
// intersection over S-□-reachable runs, so dropping runs (here every
// other pattern) can only keep it true where it held.
func restrictionKeepsCBox(sys *system.System, ev *knowledge.Evaluator) error {
	tbl := sys.Table()
	full := make(map[[2]uint64]int, len(tbl.PatternOf))
	for r, pi := range tbl.PatternOf {
		full[[2]uint64{uint64(pi), tbl.ConfigOf[r]}] = r
	}
	var pats []*failures.Pattern
	for pi := 0; pi < len(tbl.Patterns); pi += 2 {
		pats = append(pats, tbl.Patterns[pi])
	}
	sub, err := system.FromPatterns(sys.Params, sys.Mode, sys.Horizon, pats)
	if err != nil {
		return err
	}
	f := knowledge.CBox(knowledge.Nonfaulty(), knowledge.Exists0())
	whole, part := ev.Eval(f), knowledge.NewEvaluator(sub).Eval(f)
	st := sub.Table()
	for ri, pj := range st.PatternOf {
		fr := full[[2]uint64{uint64(2 * pj), st.ConfigOf[ri]}]
		for m := 0; m <= sys.Horizon; m++ {
			if whole.Get(sys.PointIndex(system.Point{Run: fr, Time: types.Round(m)})) &&
				!part.Get(sub.PointIndex(system.Point{Run: ri, Time: types.Round(m)})) {
				return fmt.Errorf("C□ ∃0 holds at (cfg %s, %s, time %d) but not once half the patterns are dropped",
					sub.Run(ri).Config(), sub.Run(ri).Pattern(), m)
			}
		}
	}
	return nil
}

// claimsOf returns the claims of one experiment.
func claimsOf(id string) []Claim {
	var out []Claim
	for _, c := range Claims() {
		if strings.HasPrefix(c.ID, id+"/") {
			out = append(out, c)
		}
	}
	return out
}
