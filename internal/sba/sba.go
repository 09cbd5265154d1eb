// Package sba implements simultaneous Byzantine agreement, the
// problem the paper contrasts EBA with (Sections 1-2): all nonfaulty
// processors must decide in the same round.
//
// Two protocols are provided:
//
//   - the common-knowledge rule of Dwork and Moses (DM90): decide at
//     the first time common knowledge C_𝒩 of some initial value's
//     existence is attained (0 preferred). Common knowledge is exactly
//     the state of knowledge required for simultaneous actions, so the
//     rule is simultaneous by construction and optimal among SBA
//     protocols (it exploits "waste": visible early failures buy
//     earlier common knowledge). It is computed semantically over an
//     enumerated system.
//
//   - FloodSet, the textbook concrete protocol: flood the set of seen
//     initial values for t+1 rounds and decide its minimum at time
//     t+1. Simultaneous and correct in the crash mode, but never early.
//
// The package exists for the comparisons that motivate EBA: eventual
// protocols may decide well before common knowledge is attained
// (DRS90), which the experiments quantify run by run.
package sba

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// Outcome is a run's simultaneous decision: at Time, every nonfaulty
// processor decides Value. Decided is false if the rule never fires
// within the horizon.
type Outcome struct {
	Time    types.Round
	Value   types.Value
	Decided bool
}

// CommonKnowledgeOutcomes evaluates the DM90 rule on every run of the
// evaluator's system: the decision fires at the first time m with
// C_𝒩 ∃0 ∨ C_𝒩 ∃1, on value 0 if C_𝒩 ∃0 holds there and 1 otherwise.
// Each nonfaulty processor can test the rule locally — C_𝒩 φ is
// equivalent to B^𝒩_i C_𝒩 φ for processors in 𝒩 (fixed-point and
// knowledge axioms) — so the rule is a genuine protocol, evaluated
// here at the knowledge level.
func CommonKnowledgeOutcomes(e *knowledge.Evaluator) []Outcome {
	sys := e.System()
	nf := knowledge.Nonfaulty()
	c0 := e.Eval(knowledge.C(nf, knowledge.Exists0()))
	c1 := e.Eval(knowledge.C(nf, knowledge.Exists1()))
	outs := make([]Outcome, sys.NumRuns())
	for r := range outs {
		for m := 0; m <= sys.Horizon; m++ {
			idx := sys.PointIndex(system.Point{Run: r, Time: types.Round(m)})
			switch {
			case c0.Get(idx):
				outs[r] = Outcome{Time: types.Round(m), Value: types.Zero, Decided: true}
			case c1.Get(idx):
				outs[r] = Outcome{Time: types.Round(m), Value: types.One, Decided: true}
			default:
				continue
			}
			break
		}
	}
	return outs
}

// CheckOutcomes verifies the SBA conditions for per-run outcomes:
// every run decides within the horizon (decision + simultaneity are
// built into the Outcome form) and unanimous inputs force the value
// (validity). Agreement is structural.
func CheckOutcomes(sys *system.System, outs []Outcome) error {
	if len(outs) != sys.NumRuns() {
		return fmt.Errorf("sba: %d outcomes for %d runs", len(outs), sys.NumRuns())
	}
	for r, out := range outs {
		run := sys.Run(r)
		if !out.Decided {
			return fmt.Errorf("sba: run %d (cfg %s, %s) never decides", r, run.Config(), run.Pattern())
		}
		if v, same := run.Config().AllEqual(); same && out.Value != v {
			return fmt.Errorf("sba: run %d violates validity: cfg %s decided %s", r, run.Config(), out.Value)
		}
	}
	return nil
}

// FloodSet is the textbook t+1-round simultaneous agreement protocol
// for the crash mode: every processor floods the set of initial
// values it has seen; at time t+1 all nonfaulty processors hold the
// same set and decide its minimum.
func FloodSet() sim.Protocol { return floodSet{} }

type floodSet struct{}

func (floodSet) Name() string { return "FloodSet" }

func (floodSet) New(env sim.Env) sim.Process {
	p := &floodProc{env: env}
	p.seen[env.Initial] = true
	return p
}

type floodProc struct {
	env     sim.Env
	seen    [2]bool
	decided bool
	value   types.Value
}

func (p *floodProc) Send(types.Round) []sim.Message {
	msg := p.seen
	out := make([]sim.Message, p.env.Params.N)
	for i := range out {
		out[i] = msg
	}
	return out
}

func (p *floodProc) Receive(r types.Round, msgs []sim.Message) {
	for _, m := range msgs {
		if m == nil {
			continue
		}
		seen := m.([2]bool)
		p.seen[0] = p.seen[0] || seen[0]
		p.seen[1] = p.seen[1] || seen[1]
	}
	if !p.decided && r == types.Round(p.env.Params.T+1) {
		p.decided = true
		if p.seen[0] {
			p.value = types.Zero
		} else {
			p.value = types.One
		}
	}
}

func (p *floodProc) Decided() (types.Value, bool) {
	if !p.decided {
		return types.Unset, false
	}
	return p.value, true
}

// Comparison is a per-run timing comparison between an SBA rule and
// an EBA protocol's decisions.
type Comparison struct {
	// SBAFirst / EBAFirst count runs where the respective side's
	// earliest nonfaulty decision is strictly earlier.
	EBAEarlierFirst int
	// EBALaterLast counts runs where some nonfaulty processor decides
	// later than the SBA time (possible: EBA trades simultaneity for
	// early deciders, it never needs to finish earlier everywhere).
	EBALaterLast int
	// Ties counts runs where first decisions coincide.
	Ties int
	// SBAEarlierFirst counts runs where SBA's simultaneous decision
	// precedes even the earliest EBA decision.
	SBAEarlierFirst int
}

// CompareEBA tabulates, run by run, the earliest EBA decision of any
// nonfaulty processor against the SBA outcome time.
func CompareEBA(sys *system.System, ebaTimes func(run system.Run) []types.Round, outs []Outcome) Comparison {
	var cmp Comparison
	for r, out := range outs {
		run := sys.Run(r)
		times := ebaTimes(run)
		if len(times) == 0 || !out.Decided {
			continue
		}
		first := times[0]
		last := times[0]
		for _, tm := range times[1:] {
			if tm < first {
				first = tm
			}
			if tm > last {
				last = tm
			}
		}
		switch {
		case first < out.Time:
			cmp.EBAEarlierFirst++
		case first > out.Time:
			cmp.SBAEarlierFirst++
		default:
			cmp.Ties++
		}
		if last > out.Time {
			cmp.EBALaterLast++
		}
	}
	return cmp
}
