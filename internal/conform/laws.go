package conform

import (
	"bytes"
	"context"
	"fmt"

	"github.com/eventual-agreement/eba/internal/exp"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
)

// checkLaws runs the engineering laws for sc's system key:
// seq-vs-parallel digest equality, the golden digest pin, the codec
// round-trip, sequential-vs-parallel evaluator identity, mode parity,
// and the prefix-sharing builder against the per-run one.
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
			// system.Restorer) → re-encode is the identity on bytes,
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

	// Evaluator parallelism is invisible in results: a sequential and a
	// parallel evaluator produce bit-identical tables for a compound
	// formula exercising K, C, C□, E◇ and booleans at once.
	checks++
	nf, e0, e1 := knowledge.Nonfaulty(), knowledge.Exists0(), knowledge.Exists1()
	compound := knowledge.And(
		knowledge.Implies(knowledge.CBox(nf, e0), knowledge.K(0, e0)),
		knowledge.Or(knowledge.Not(knowledge.C(nf, e1)), knowledge.EDiamond(nf, e1)),
	)
	evSeq := knowledge.NewEvaluator(seq)
	evSeq.SetParallelism(1)
	evPar := knowledge.NewEvaluator(seq)
	evPar.SetParallelism(0)
	if !evSeq.Eval(compound).Equal(evPar.Eval(compound)) {
		fail("parallel:evaluator", "sequential and parallel evaluators disagree on a compound formula")
	}

	v3, c3 := modeParityLaws(sc, seq, ev, r.opts.Mutant)
	v4, c4 := buildLaw(sc, seq, r.opts.Mutant)
	return append(append(vs, v3...), v4...), checks + c3 + c4
}

// checkClaims runs every registry claim that applies to sc's key on its
// system (the law and oracle mutants add a deliberately false one), and
// asks the service query engine over the store snapshot for every claim
// stated as a formula: engine and direct evaluator must agree point
// count for point count.
func (r *Runner) checkClaims(sc Scenario, seq *system.System, ev *knowledge.Evaluator) (vs []Violation, checks int) {
	k := exp.Key{Mode: sc.Mode, N: sc.N, T: sc.T, H: sc.Horizon}
	for _, c := range claimsFor(r.opts.Mutant) {
		if c.NA(k) != "" {
			continue
		}
		checks++
		if err := c.Check(seq, ev); err != nil {
			vs = append(vs, violationOf(sc, "claim", c.ID, err.Error()))
		}
		// The service engine's zero-value defaulting makes t=0
		// unaddressable over its request surface (T: 0 means "default
		// to 1"); those keys are covered by the direct evaluator only.
		if c.Formula != "" && sc.T > 0 {
			checks++
			if err := r.engineAgrees(sc, ev, c.Formula); err != nil {
				vs = append(vs, violationOf(sc, "law", "service:"+c.ID, err.Error()))
			}
		}
	}
	return vs, checks
}

// engineAgrees asks the service engine for src over the store snapshot
// of sc's key and compares its verdict with the direct evaluator's.
func (r *Runner) engineAgrees(sc Scenario, ev *knowledge.Evaluator, src string) error {
	f, err := knowledge.Parse(src)
	if err != nil {
		return err
	}
	tbl := ev.Eval(f)
	resp, err := r.engine.Execute(context.Background(), service.Request{
		Formula: src, N: sc.N, T: sc.T, Mode: sc.Mode.String(), Horizon: sc.Horizon, Limit: sc.Key().Limit,
	})
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if resp.Valid != tbl.All() || resp.TruePoints != tbl.Count() || resp.TotalPoints != tbl.Len() {
		return fmt.Errorf("engine disagrees with direct evaluator: valid=%v/%v true=%d/%d total=%d/%d",
			resp.Valid, tbl.All(), resp.TruePoints, tbl.Count(), resp.TotalPoints, tbl.Len())
	}
	return nil
}

// claimsFor is the registry plus the mutant's false claim, if any.
func claimsFor(mutant string) []exp.Claim {
	cs := exp.Claims()
	switch mutant {
	case MutantLaw:
		// E_S ∃0 does not imply C_S ∃0: a processor can know ∃0
		// without it being common knowledge.
		cs = append(cs, exp.Law("mutant/E-to-C", "deliberately false", "E E0 -> C E0"))
	case MutantOracle:
		// FΛ never decides, so presented as its own optimization it
		// fails the Thm 5.3 oracle.
		flam := func(*knowledge.Evaluator) fip.Pair {
			return fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
		}
		cs = append(cs, exp.Optimum("mutant/FΛ-unoptimized", "deliberately false", flam,
			func(_ *knowledge.Evaluator, p fip.Pair) fip.Pair { return p }))
	}
	return cs
}
