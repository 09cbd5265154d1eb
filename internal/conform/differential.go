package conform

import (
	"errors"
	"fmt"

	"github.com/eventual-agreement/eba/internal/chaos"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/nettransport"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

// runDifferential is the differential pillar for one scenario: run the
// scenario's protocol on the live TCP runtime under its chaos plan,
// cross-check the reconstructed fault pattern by deterministic replay
// (sim.DiffTraces), and then look the reconstructed run up in the
// store-backed exhaustive system and compare the knowledge layer's
// prescribed decisions (fip.DecisionAt) with the live ones, processor
// for processor.
func (r *Runner) runDifferential(sc Scenario) (vs []Violation, checks int) {
	fail := func(law, detail string) {
		vs = append(vs, violationOf(sc, "differential", law, detail))
	}
	params := sc.Params()
	plan, err := chaos.New(sc.Mode, params, sc.Horizon, sc.ChaosSeed)
	if err != nil {
		fail("chaos-plan", err.Error())
		return vs, 1
	}
	pair := sc.Pair()
	proto := fip.WireProtocol(pair)

	// Live run with the reconstruction retry idiom: scheduler hiccups
	// can push a frame past the round deadline, producing extra
	// omissions; if they exceed the pattern bound the run is
	// unattributable and is retried with a doubled deadline. The
	// harness supplies its own Observation (fresh per attempt) so the
	// reconstruction mutant below can re-attribute the same message
	// fates the engine saw.
	checks++
	var live *sim.Trace
	var obs *failures.Observation
	deadline := r.opts.Deadline
	for attempt := 1; ; attempt++ {
		obs = failures.NewObservation(params.N, sc.Horizon)
		live, err = nettransport.RunResilient(proto, params, sc.Config, nettransport.Options{
			Plan:        plan,
			Deadline:    deadline,
			Observation: obs,
		})
		var rerr *nettransport.ReconstructionError
		if err != nil && errors.As(err, &rerr) && attempt < 4 {
			deadline *= 2
			continue
		}
		break
	}
	if err != nil {
		fail("live-run", err.Error())
		return vs, checks
	}

	// The reconstruction mutant: blame every drop on its sender even
	// though the scenario's mode attributes (some of) them to the
	// receiver. The misattributed pattern induces the exact same
	// deliveries, so replay stays green — the system lookup below is
	// what must notice the pattern is not a legal one for this mode.
	// Runs without any drop are left alone: there is nothing to
	// misattribute, and the mutant must be caught on the attribution
	// itself, not on run bookkeeping.
	if r.opts.Mutant == MutantReconstruction && sc.Mode.HasReceivingFaults() && len(obs.Omissions()) > 0 {
		if buggy, berr := obs.Reconstruct(failures.Omission); berr == nil {
			live.Pattern = buggy
		}
	}

	// The reconstructed pattern must respect the scenario's fault bound
	// — chaos plans are legal by construction, and timing noise only
	// adds omissions to already-faulty senders.
	checks++
	if err := live.Pattern.CheckBound(sc.T); err != nil {
		fail("fault-bound", err.Error())
	}

	// Runtime 2: deterministic replay of the reconstructed pattern must
	// reproduce the live trace exactly (decisions, rounds, and message
	// accounting). The mutant tampers with the live decisions first to
	// prove a divergence here is caught.
	checks++
	compared := live
	if r.opts.Mutant == MutantDifferential {
		compared = tamperTrace(live)
	}
	if err := nettransport.VerifyReconstruction(proto, params, compared); err != nil {
		fail("replay", err.Error())
	}

	// Runtime 3: the reconstructed run exists in the exhaustive system
	// (the store snapshot the query engine serves), and the decisions
	// the knowledge layer prescribes there match the live ones.
	sys, _, err := r.store.System(sc.Key())
	if err != nil {
		fail("store-system", err.Error())
		return vs, checks
	}
	checks++
	run, ok := sys.FindRun(sc.Config, live.Pattern.Key())
	if !ok {
		fail("find-run", fmt.Sprintf("reconstructed pattern %s not in the enumerated system", live.Pattern))
		return vs, checks
	}
	for p := 0; p < sc.N; p++ {
		checks++
		wantV, wantAt, wantOK := fip.DecisionAt(sys, pair, run, types.ProcID(p))
		gotV, gotAt, gotOK := compared.DecisionOf(types.ProcID(p))
		if wantOK != gotOK || (wantOK && (wantV != gotV || wantAt != gotAt)) {
			fail("decision", fmt.Sprintf(
				"proc %d: model prescribes (%v@%d, decided=%v) but live run gave (%v@%d, decided=%v) on pattern %s",
				p, wantV, wantAt, wantOK, gotV, gotAt, gotOK, live.Pattern))
		}
	}
	return vs, checks
}

// tamperTrace returns a copy of tr with every decision shifted one
// round later (or a fabricated decision when nobody decided) — the
// differential mutant's injected divergence.
func tamperTrace(tr *sim.Trace) *sim.Trace {
	out := sim.NewTrace(tr.Protocol, tr.Config, tr.Pattern)
	out.Sent, out.Delivered = tr.Sent, tr.Delivered
	tampered := false
	for p := 0; p < tr.Config.N(); p++ {
		if v, at, ok := tr.DecisionOf(types.ProcID(p)); ok {
			out.Record(types.ProcID(p), v, at+1)
			tampered = true
		}
	}
	if !tampered {
		out.Record(0, types.One, 0)
	}
	return out
}
