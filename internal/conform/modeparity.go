package conform

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// goldenDigests pins the snapshot digests of signature system keys.
// The crash and sending-omission pins prove the general/receiving
// mode extension left every pre-existing snapshot byte untouched (the
// codec only emits receive schedules for keys whose mode has
// receiving faults); the receiving and general pins freeze the new
// modes' wire format. A scenario whose key carries a pin re-derives
// the digest from a fresh sequential enumeration on every conformance
// run.
var goldenDigests = map[string]string{
	"crash-n3-t1-h2":                       "bb657aa409b130922f91336993b2f761f3351f004e03fca7ee8e6175122b4b78",
	"omission-n3-t1-h2-l2000000":           "72d7bb575ebedb0737ae023807e808525324ac37727a27fd379a5255c05b7cd9",
	"receiving-omission-n3-t1-h2-l2000000": "e792e7e13f6099e75bbd50580308bd9400a568699a3e7d6d36c2b4496369886e",
	"general-omission-n3-t1-h2-l2000000":   "cc01d4fc84845682a98d417f0192e0cbb530ed7613fd2a042644417ad5687136",
}

// modeParityLaws are the cross-mode engineering laws: every
// crash, sending-omission, and receiving-omission pattern embeds into
// the general-omission system over the same parameters (the
// containment chain crash ⊂ omission ⊂ general, receiving ⊂ general),
// and the embedding is invisible to everything downstream of
// deliveries. Concretely, for each run of the scenario's system:
//
//	parity:count        |general patterns| ≥ |mode patterns|
//	parity:deliveries   the embedded pattern delivers exactly the
//	                    same (sender, round, receiver) triples
//	parity:containment  the embedded run exists in the enumerated
//	                    general system (by config + pattern key)
//	parity:decisions    the syntactic Chain0 pair decides identically
//	                    on the run and on its embedding — decisions
//	                    are view-determined, views are
//	                    delivery-determined
//	parity:cbox         C□ ∃0 holding at the embedded point implies it
//	                    holds at the original point: the mode's system
//	                    is a run-restriction of the general one, and
//	                    C□ is monotone under run restriction (Cor 3.3)
//
// The laws run only where the general enumeration stays small (n ≤ 3,
// t ≤ 1, and h = 2 unless n = 2); larger scenarios skip them. Under
// MutantParity the embedding is replaced by one that drops the
// receive schedules, which parity:deliveries must catch on any
// receiving-omission scenario with at least one receive drop.
func modeParityLaws(sc Scenario, seq *system.System, ev *knowledge.Evaluator, mutant string) (vs []Violation, checks int) {
	if sc.Mode == failures.GeneralOmission || sc.N > 3 || sc.T > 1 {
		return nil, 0
	}
	if sc.Horizon != 2 && sc.N != 2 {
		return nil, 0
	}
	fail := func(law, detail string) {
		vs = append(vs, violationOf(sc, "law", law, detail))
	}

	gen, err := system.Enumerate(sc.Params(), failures.GeneralOmission, sc.Horizon, service.DefaultOmissionLimit)
	if err != nil {
		return []Violation{violationOf(sc, "law", "parity:enumerate-general", err.Error())}, 1
	}

	// parity:count — the general mode strictly extends every other
	// mode's pattern space over the same parameters.
	checks++
	seqPats, genPats := distinctPatterns(seq), distinctPatterns(gen)
	if len(genPats) < len(seqPats) {
		fail("parity:count", fmt.Sprintf("general system has %d patterns, %s system has %d",
			len(genPats), sc.Mode, len(seqPats)))
	}
	genKeys := make(map[string]bool, len(genPats))
	for _, p := range genPats {
		genKeys[p.Key()] = true
	}

	// Embed each distinct pattern once; runs sharing a pattern reuse it.
	embedded := make(map[string]*failures.Pattern, len(seqPats))
	for _, p := range seqPats {
		emb, err := p.EmbedInGeneral()
		if err != nil {
			return append(vs, violationOf(sc, "law", "parity:embed",
				fmt.Sprintf("pattern %s does not embed: %v", p, err))), checks + 1
		}
		if mutant == MutantParity {
			emb = stripRecv(emb)
		}
		embedded[p.Key()] = emb
	}

	pair := protocols.Chain0SyntacticPair()
	nf := knowledge.Nonfaulty()
	cbox := knowledge.CBox(nf, knowledge.Exists0())
	seqTbl := ev.Eval(cbox)
	genTbl := knowledge.NewEvaluator(gen).Eval(cbox)

	// One check per law; the first counterexample per law is reported
	// and the law short-circuits (the full run set still executes for
	// the other laws).
	caught := map[string]bool{}
	failOnce := func(law, detail string) {
		if !caught[law] {
			caught[law] = true
			fail(law, detail)
		}
	}
	checks += 4 // deliveries, containment, decisions, cbox
	for ri := 0; ri < seq.NumRuns(); ri++ {
		run := seq.Run(ri)
		emb := embedded[run.Pattern().Key()]
		if !caught["parity:deliveries"] {
			if s, r, d, ok := deliveryDiff(run.Pattern(), emb); !ok {
				failOnce("parity:deliveries", fmt.Sprintf(
					"pattern %s and its embedding %s disagree on delivery %d→%d at round %d",
					run.Pattern(), emb, s, d, r))
			}
		}
		if !genKeys[emb.Key()] {
			failOnce("parity:containment", fmt.Sprintf(
				"embedding %s of pattern %s not in the general enumeration", emb, run.Pattern()))
			continue
		}
		grun, ok := gen.FindRun(run.Config(), emb.Key())
		if !ok {
			failOnce("parity:containment", fmt.Sprintf(
				"embedded run (cfg %s, pattern %s) not found in the general system", run.Config(), emb))
			continue
		}
		if !caught["parity:decisions"] {
			for p := 0; p < sc.N; p++ {
				v1, at1, ok1 := fip.DecisionAt(seq, pair, run, types.ProcID(p))
				v2, at2, ok2 := fip.DecisionAt(gen, pair, grun, types.ProcID(p))
				if ok1 != ok2 || (ok1 && (v1 != v2 || at1 != at2)) {
					failOnce("parity:decisions", fmt.Sprintf(
						"proc %d decides (%v@%d, ok=%v) on pattern %s but (%v@%d, ok=%v) on its general embedding",
						p, v1, at1, ok1, run.Pattern(), v2, at2, ok2))
					break
				}
			}
		}
		if !caught["parity:cbox"] {
			for m := 0; m <= sc.Horizon; m++ {
				gi := gen.PointIndex(system.Point{Run: grun.Index, Time: types.Round(m)})
				si := seq.PointIndex(system.Point{Run: run.Index, Time: types.Round(m)})
				if genTbl.Get(gi) && !seqTbl.Get(si) {
					failOnce("parity:cbox", fmt.Sprintf(
						"C□ ∃0 holds at (cfg %s, pattern %s, time %d) in the general system but not in the %s restriction",
						run.Config(), emb, m, sc.Mode))
					break
				}
			}
		}
	}
	return vs, checks
}

// distinctPatterns returns one representative per pattern key, in run
// order.
func distinctPatterns(sys *system.System) []*failures.Pattern {
	seen := make(map[string]bool)
	var out []*failures.Pattern
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		if !seen[run.Pattern().Key()] {
			seen[run.Pattern().Key()] = true
			out = append(out, run.Pattern())
		}
	}
	return out
}

// deliveryDiff compares two patterns' delivery relations; on the
// first disagreement it returns the (sender, round, receiver) triple
// and ok=false.
func deliveryDiff(a, b *failures.Pattern) (types.ProcID, types.Round, types.ProcID, bool) {
	for r := types.Round(1); int(r) <= a.Horizon(); r++ {
		for s := 0; s < a.N(); s++ {
			for d := 0; d < a.N(); d++ {
				if a.Delivers(types.ProcID(s), r, types.ProcID(d)) != b.Delivers(types.ProcID(s), r, types.ProcID(d)) {
					return types.ProcID(s), r, types.ProcID(d), false
				}
			}
		}
	}
	return 0, 0, 0, true
}

// stripRecv is the deliberately broken rewrite behind MutantParity and
// MutantPrefix: the receive schedules are discarded, so a pattern's
// receive drops silently vanish; mode and faulty set are kept.
func stripRecv(p *failures.Pattern) *failures.Pattern {
	nb := make(map[types.ProcID]*failures.Behavior, p.Faulty().Len())
	for _, q := range p.Faulty().Members() {
		b := &failures.Behavior{Omit: make([]types.ProcSet, p.Horizon())}
		for r := 1; r <= p.Horizon(); r++ {
			b.Omit[r-1] = p.OmittedBy(q, types.Round(r))
		}
		nb[q] = b
	}
	out, err := failures.NewPattern(p.Mode(), p.N(), p.Horizon(), p.Faulty(), nb)
	if err != nil {
		return p
	}
	return out
}
