package protocols

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// chainMsg is Chain0's round message: the sender's fault evidence,
// and — if the sender accepted 0 in the immediately preceding time
// step — its acceptance chain (a 0-chain certificate).
type chainMsg struct {
	evidence types.ProcSet
	chain    []types.ProcID // nil unless freshly accepted
}

// Chain0 is a certificate-passing implementation of the 0-chain EBA
// protocol FIP(𝒵⁰, 𝒪⁰) for the sending-omission mode (Section 6.2).
//
// A processor with initial value 0 accepts 0 at time 0. A processor
// accepts 0 at time u when it receives, in round u, the chain of a
// processor that accepted at exactly time u-1, provided the sender is
// not known to be faulty and the receiver is not already on the
// chain. Acceptance chains are exactly the paper's 0-chains ("a
// processor accepts 0 in round m only if the value was transferred by
// a chain of m-1 distinct processors", cf. DS82).
//
// Decisions: a processor decides 0 when it accepts; it decides 1 at
// the end of the first round in which it learns of no new failure.
// As shown in Proposition 6.4, every nonfaulty processor decides by
// time f+1 when f processors fail visibly; the semantic decision pair
// (𝒵⁰, 𝒪⁰) = (B^N∃0*, B^N¬∃0*) dominates this implementation and
// agrees with it on when 0 is decided.
func Chain0() sim.Protocol { return chain0{} }

type chain0 struct{}

func (chain0) Name() string { return "Chain0" }

func (chain0) New(env sim.Env) sim.Process {
	p := &chain0Proc{env: env}
	if env.Initial == types.Zero {
		p.accepted = true
		p.chain = []types.ProcID{env.ID}
		p.acceptTime = 0
		p.relayNext = true
	}
	return p
}

type chain0Proc struct {
	env        sim.Env
	evidence   types.ProcSet
	accepted   bool
	chain      []types.ProcID
	acceptTime types.Round
	relayNext  bool

	decided bool
	value   types.Value
}

func (p *chain0Proc) Send(types.Round) []sim.Message {
	msg := chainMsg{evidence: p.evidence}
	if p.relayNext {
		msg.chain = p.chain
		p.relayNext = false
	}
	out := make([]sim.Message, p.env.Params.N)
	for i := range out {
		out[i] = msg
	}
	return out
}

func (p *chain0Proc) Receive(r types.Round, msgs []sim.Message) {
	before := p.evidence
	type offer struct {
		from  types.ProcID
		chain []types.ProcID
	}
	var offers []offer
	for j, m := range msgs {
		sender := types.ProcID(j)
		if sender == p.env.ID {
			continue
		}
		if m == nil {
			// A missing required message is direct evidence that the
			// sender is faulty.
			p.evidence = p.evidence.Add(sender)
			continue
		}
		cm := m.(chainMsg)
		p.evidence = p.evidence.Union(cm.evidence)
		// A chain sent in round r certifies acceptance at time r-1,
		// so it has exactly r elements.
		if cm.chain != nil && len(cm.chain) == int(r) {
			offers = append(offers, offer{from: sender, chain: cm.chain})
		}
	}
	if !p.accepted {
		for _, of := range offers {
			if p.evidence.Contains(of.from) || onChain(of.chain, p.env.ID) {
				continue
			}
			p.accepted = true
			p.chain = append(append([]types.ProcID(nil), of.chain...), p.env.ID)
			p.acceptTime = r
			p.relayNext = true
			break
		}
	}
	if !p.decided {
		switch {
		case p.accepted:
			p.decided, p.value = true, types.Zero
		case p.evidence == before:
			// A round with no new failure evidence: no 0-chain can
			// ever reach this processor (Proposition 6.4).
			p.decided, p.value = true, types.One
		}
	}
}

func onChain(chain []types.ProcID, p types.ProcID) bool {
	for _, q := range chain {
		if q == p {
			return true
		}
	}
	return false
}

func (p *chain0Proc) Decided() (types.Value, bool) {
	if !p.decided && p.accepted {
		p.decided, p.value = true, types.Zero
	}
	if !p.decided {
		return types.Unset, false
	}
	return p.value, true
}

// Exists0Star is the basic fact ∃0* of Section 6.2 over n processors:
// a 0-chain exists at or before the current time, i.e. some nonfaulty
// processor has accepted 0. A processor's view at time m remembers its
// views at every earlier time (Interner.Prev), so "p accepted at some
// m' ≤ m" is BelievesExistsZeroStar of p's view at m, a fact about the
// view alone: ∃0* is ∨_i (i ∈ 𝒩 ∧ BelievesExistsZeroStar_i), which the
// evaluator asks once per view of each processor and once per run.
func Exists0Star(n int) knowledge.Formula {
	fs := make([]knowledge.Formula, n)
	for i := range fs {
		p := types.ProcID(i)
		fs[i] = knowledge.And(knowledge.IsNonfaulty(p),
			knowledge.ViewAtom(fmt.Sprintf("B∃0*_%d", i), p, chainBelieves0))
	}
	return knowledge.Or(fs...)
}

// Chain0SemanticPair materializes FIP(𝒵⁰, 𝒪⁰) — 𝒵⁰_i = B^N_i ∃0*,
// 𝒪⁰_i = B^N_i ¬∃0* — over the evaluator's system.
func Chain0SemanticPair(e *knowledge.Evaluator) fip.Pair {
	nf := knowledge.Nonfaulty()
	star := Exists0Star(e.System().Params.N)
	return core.PairFromFormulas(e, "Z0O0",
		func(i types.ProcID) knowledge.Formula { return knowledge.B(i, nf, star) },
		func(i types.ProcID) knowledge.Formula { return knowledge.B(i, nf, knowledge.Not(star)) },
	)
}

// Chain0SyntacticPair is the syntactic decision pair of the concrete
// Chain0 protocol, expressed over full-information views: decide 0 on
// being a 0-chain endpoint; decide 1 after a round that produced no
// new fault evidence (closed under "has decided").
func Chain0SyntacticPair() fip.Pair {
	return fip.Pair{
		Name: "Chain0",
		Z:    fip.FromPred("Chain0.Z", chainBelieves0),
		O:    fip.FromPred("Chain0.O", chainDecided1),
	}
}

func chainBelieves0(in *views.Interner, id views.ID) bool {
	return in.BelievesExistsZeroStar(id)
}

func chainDecided1(in *views.Interner, id views.ID) bool {
	if in.BelievesExistsZeroStar(id) {
		return false
	}
	for cur := id; cur != views.NoView; cur = in.Prev(cur) {
		prev := in.Prev(cur)
		if prev == views.NoView {
			return false
		}
		if in.FaultEvidence(cur) == in.FaultEvidence(prev) {
			return true
		}
	}
	return false
}
