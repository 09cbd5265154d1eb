package conform

import (
	"bytes"
	"context"
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// parsedLaw is an epistemic law stated in the query grammar, expected
// valid on every generated system. Service-flagged laws are also
// executed through the service engine over the store snapshot and the
// two verdicts compared — that is the third runtime of the
// differential story, exercised on the formula path.
type parsedLaw struct {
	Name    string
	Formula string
	Service bool
}

// lawCatalog is the machine-checked law set (the parseable half; the
// structural half lives in checkLaws). S is the nonrigid set of
// nonfaulty processors throughout.
//
//	containment chain (Lemma 3.4): C□ → E□ → E, C□ → C → E
//	belief (Sec 2):                E ∧ i∈S → B_i, B_i ∧ i∈S → φ, K truth + introspection
//	common knowledge:              C → E C (everyone knows the common knowledge)
//	continual (Cor 3.3):           C□ is run-constant
func lawCatalog(mutant string) []parsedLaw {
	laws := []parsedLaw{
		{"containment:cbox->ebox", "Cbox E0 -> box E E0", true},
		{"containment:ebox->e", "box E E0 -> E E0", false},
		{"containment:cbox->c", "Cbox E0 -> C E0", true},
		{"containment:c->e", "C E0 -> E E0", true},
		{"containment:e->b", "(E E1 & nf0) -> B0 E1", false},
		{"belief:truth-for-members", "(B0 E1 & nf0) -> E1", false},
		{"knowledge:truth", "K0 E0 -> E0", false},
		{"knowledge:introspection", "K0 E0 -> K0 K0 E0", false},
		{"common:publicly-known", "C E1 -> E C E1", false},
		{"continual:run-constant", "Cbox E0 -> box Cbox E0", false},
	}
	if mutant == MutantLaw {
		// Deliberately false: E_S ∃0 does not imply C_S ∃0 (a processor
		// can know ∃0 without it being common knowledge).
		laws = append(laws, parsedLaw{"mutant:e->c", "E E0 -> C E0", true})
	}
	return laws
}

// checkLaws runs the metamorphic / property-based pillar for sc's
// system key: the parseable catalog (direct evaluator + service
// engine), the fixed-point characterizations, C□ monotonicity under
// run restriction, seq-vs-parallel digest equality, the codec
// round-trip, and the prefix-sharing builder against the per-run one.
func (r *Runner) checkLaws(sc Scenario, seq *system.System, ev *knowledge.Evaluator) (vs []Violation, checks int) {
	key := sc.Key()
	fail := func(law, detail string) {
		vs = append(vs, violationOf(sc, "law", law, detail))
	}

	// Structural law: the parallel builder's snapshot is byte-identical
	// to the sequential one (the determinism contract of PR 4).
	checks++
	par, err := system.EnumerateParallel(sc.Params(), sc.Mode, sc.Horizon, key.Limit, 0)
	if err != nil {
		fail("digest:parallel-enumerate", err.Error())
	} else {
		seqBytes, err1 := store.EncodeSystem(key, seq)
		parBytes, err2 := store.EncodeSystem(key, par)
		switch {
		case err1 != nil || err2 != nil:
			fail("digest:encode", fmt.Sprintf("seq: %v, par: %v", err1, err2))
		case !bytes.Equal(seqBytes, parBytes):
			fail("digest:seq-vs-parallel", fmt.Sprintf("sequential digest %s != parallel digest %s",
				store.Digest(seqBytes), store.Digest(parBytes)))
		default:
			// Signature keys carry a pinned golden digest (see
			// goldenDigests in modeparity.go): the snapshot bytes of
			// the sending modes must never move under mode extensions,
			// and the new modes' format is frozen the same way.
			if pin, ok := goldenDigests[key.Slug()]; ok {
				checks++
				if got := store.Digest(seqBytes); got != pin {
					fail("digest:golden", fmt.Sprintf("snapshot digest of %s is %s, pinned golden is %s",
						key.Slug(), got, pin))
				}
			}
			// Structural law: encode → decode (which restores via
			// system.Reassemble) → re-encode is the identity on bytes,
			// and the decoded system gives the same verdicts.
			checks++
			key2, sys2, err := store.DecodeSystem(seqBytes)
			again, err3 := store.EncodeSystem(key2, sys2)
			switch {
			case err != nil:
				fail("codec:decode", err.Error())
			case key2 != key:
				fail("codec:key-round-trip", fmt.Sprintf("decoded key %s != %s", key2.Slug(), key.Slug()))
			case err3 != nil:
				fail("codec:re-encode", err3.Error())
			case !bytes.Equal(seqBytes, again):
				fail("codec:round-trip", "re-encoded snapshot differs from original")
			default:
				nf := knowledge.Nonfaulty()
				want := knowledge.NewEvaluator(seq).Eval(knowledge.CBox(nf, knowledge.Exists0()))
				got := knowledge.NewEvaluator(sys2).Eval(knowledge.CBox(nf, knowledge.Exists0()))
				if !want.Equal(got) {
					fail("codec:verdict-round-trip", "C□ table differs between original and decoded system")
				}
			}
		}
	}

	for _, law := range lawCatalog(r.opts.Mutant) {
		checks++
		f, err := knowledge.Parse(law.Formula)
		if err != nil {
			fail(law.Name, fmt.Sprintf("parse %q: %v", law.Formula, err))
			continue
		}
		tbl := ev.Eval(f)
		if !tbl.All() {
			pt, _ := ev.FailingPoint(f)
			run := seq.RunOf(pt)
			fail(law.Name, fmt.Sprintf("%q fails at run %d time %d (cfg %s, pattern %s): %d/%d points",
				law.Formula, pt.Run, pt.Time, run.Config(), run.Pattern(), tbl.Count(), tbl.Len()))
		}
		if !law.Service {
			continue
		}
		// The service engine's zero-value defaulting makes t=0
		// unaddressable over its request surface (T: 0 means "default
		// to 1"); those keys are covered by the direct evaluator only.
		if sc.T == 0 {
			continue
		}
		checks++
		resp, err := r.engine.Execute(context.Background(), service.Request{
			Formula: law.Formula, N: sc.N, T: sc.T,
			Mode: sc.Mode.String(), Horizon: sc.Horizon, Limit: key.Limit,
		})
		switch {
		case err != nil:
			fail("service:"+law.Name, fmt.Sprintf("engine: %v", err))
		case resp.Valid != tbl.All() || resp.TruePoints != tbl.Count() || resp.TotalPoints != tbl.Len():
			fail("service:"+law.Name, fmt.Sprintf(
				"engine disagrees with direct evaluator: valid=%v/%v true=%d/%d total=%d/%d",
				resp.Valid, tbl.All(), resp.TruePoints, tbl.Count(), resp.TotalPoints, tbl.Len()))
		}
	}

	v2, c2 := structuralLaws(sc, seq, ev)
	vs, checks = append(vs, v2...), checks+c2
	v3, c3 := modeParityLaws(sc, seq, ev, r.opts.Mutant)
	v4, c4 := buildLaw(sc, seq, r.opts.Mutant)
	return append(append(vs, v3...), v4...), checks + c3 + c4
}

// structuralLaws are the catalog entries that need formula
// constructors or system surgery rather than the query grammar.
func structuralLaws(sc Scenario, seq *system.System, ev *knowledge.Evaluator) (vs []Violation, checks int) {
	fail := func(law, detail string) {
		vs = append(vs, violationOf(sc, "law", law, detail))
	}
	nf := knowledge.Nonfaulty()
	e0, e1 := knowledge.Exists0(), knowledge.Exists1()

	// Cor 3.3 fixed point: C□ φ ↔ E□(φ ∧ C□ φ).
	checks++
	cbox0 := knowledge.CBox(nf, e0)
	fp := knowledge.Iff(cbox0, knowledge.EBox(nf, knowledge.And(e0, cbox0)))
	if !ev.Valid(fp) {
		pt, _ := ev.FailingPoint(fp)
		fail("fixedpoint:cbox", fmt.Sprintf("C□ fixed-point equation fails at run %d time %d", pt.Run, pt.Time))
	}
	// ... and the reachability computation matches the definitional
	// iteration of C□ as the limit of (E□)^k.
	checks++
	if !ev.CBoxIterative(nf, e0).Equal(ev.Eval(cbox0)) {
		fail("fixedpoint:cbox-iterative", "reachability C□ differs from definitional iteration")
	}
	// Idempotence: C□ and C are their own fixed points.
	checks++
	if !ev.Eval(knowledge.CBox(nf, cbox0)).Equal(ev.Eval(cbox0)) {
		fail("fixedpoint:cbox-idempotent", "C□ C□ φ differs from C□ φ")
	}
	checks++
	c1 := knowledge.C(nf, e1)
	if !ev.Eval(knowledge.C(nf, c1)).Equal(ev.Eval(c1)) {
		fail("fixedpoint:c-idempotent", "C C φ differs from C φ")
	}
	// Prop 3.2 shape for eventual common knowledge: C◇ φ ↔ E◇(φ ∧ C◇ φ).
	checks++
	cd0 := knowledge.CDiamond(nf, e0)
	gfp := knowledge.Iff(cd0, knowledge.EDiamond(nf, knowledge.And(e0, cd0)))
	if !ev.Valid(gfp) {
		pt, _ := ev.FailingPoint(gfp)
		fail("fixedpoint:cdiamond", fmt.Sprintf("C◇ fixed-point equation fails at run %d time %d", pt.Run, pt.Time))
	}

	// Evaluator parallelism is invisible in results: a sequential and a
	// parallel evaluator produce bit-identical tables for a compound
	// formula exercising K, C, C□, E◇ and booleans at once.
	checks++
	compound := knowledge.And(
		knowledge.Implies(cbox0, knowledge.K(0, e0)),
		knowledge.Or(knowledge.Not(c1), knowledge.EDiamond(nf, e1)),
	)
	evSeq := knowledge.NewEvaluator(seq)
	evSeq.SetParallelism(1)
	evPar := knowledge.NewEvaluator(seq)
	evPar.SetParallelism(0)
	if !evSeq.Eval(compound).Equal(evPar.Eval(compound)) {
		fail("parallel:evaluator", "sequential and parallel evaluators disagree on a compound formula")
	}

	v2, c2 := cboxMonotonicity(sc, seq, ev)
	return append(vs, v2...), checks + c2
}

// cboxMonotonicity checks the subset-of-runs law: dropping runs from a
// system only shrinks run-reachability, so wherever C□ φ holds in the
// full system it must still hold at the corresponding point of a
// restricted system (Cor 3.3: C□ is a □̂/reachability intersection
// over runs, monotone decreasing in the run set).
func cboxMonotonicity(sc Scenario, seq *system.System, ev *knowledge.Evaluator) (vs []Violation, checks int) {
	var pats []*failures.Pattern
	seen := make(map[string]bool)
	for ri := 0; ri < seq.NumRuns(); ri++ {
		run := seq.Run(ri)
		if !seen[run.Pattern().Key()] {
			seen[run.Pattern().Key()] = true
			pats = append(pats, run.Pattern())
		}
	}
	if len(pats) < 2 {
		return nil, 0 // t=0: a single pattern, nothing to restrict
	}
	checks++
	sub := pats[:0:0]
	for i, p := range pats {
		if i%2 == 0 {
			sub = append(sub, p)
		}
	}
	subSys, err := system.FromPatterns(sc.Params(), sc.Mode, sc.Horizon, sub)
	if err != nil {
		return []Violation{violationOf(sc, "law", "monotone:cbox-restriction", "building restricted system: "+err.Error())}, checks
	}
	// Index the full system's runs by (pattern, config) for O(1) lookup.
	type runKey struct {
		pat string
		cfg uint64
	}
	fullRun := make(map[runKey]system.Run, seq.NumRuns())
	for ri := 0; ri < seq.NumRuns(); ri++ {
		run := seq.Run(ri)
		fullRun[runKey{run.Pattern().Key(), run.ConfigBits()}] = run
	}
	nf := knowledge.Nonfaulty()
	f := knowledge.CBox(nf, knowledge.Exists0())
	fullTbl := ev.Eval(f)
	subTbl := knowledge.NewEvaluator(subSys).Eval(f)
	for ri := 0; ri < subSys.NumRuns(); ri++ {
		run := subSys.Run(ri)
		fr, ok := fullRun[runKey{run.Pattern().Key(), run.ConfigBits()}]
		if !ok {
			return []Violation{violationOf(sc, "law", "monotone:cbox-restriction",
				fmt.Sprintf("restricted run (cfg %s) missing from full system", run.Config()))}, checks
		}
		for m := 0; m <= sc.Horizon; m++ {
			fullIdx := seq.PointIndex(system.Point{Run: fr.Index, Time: types.Round(m)})
			subIdx := subSys.PointIndex(system.Point{Run: run.Index, Time: types.Round(m)})
			if fullTbl.Get(fullIdx) && !subTbl.Get(subIdx) {
				return []Violation{violationOf(sc, "law", "monotone:cbox-restriction",
					fmt.Sprintf("C□ ∃0 holds at (cfg %s, pattern %s, time %d) in the full system but not in the restricted one",
						run.Config(), run.Pattern(), m))}, checks
			}
		}
	}
	return nil, checks
}
