// Package fip turns decision pairs — the paper's (𝒵, 𝒪) — into
// runnable full-information protocols.
//
// A decision set (Section 4) assigns to each processor the local
// states at which it decides or has decided a value; since
// full-information states are protocol-independent (Proposition 2.2),
// a decision pair over interned views determines the unique
// full-information protocol FIP(𝒵, 𝒪). The package provides both
// predicate-backed sets (syntactic rules such as B^N_i ∃0*) and
// table-backed sets (the output of the knowledge-level optimization
// construction), and two protocol adapters: a fast one for the
// deterministic engine that shares one interner, and a wire adapter
// for the TCP runtime that serializes views with the codec.
package fip

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// DecisionSet is a set of local states, the paper's 𝒵 or 𝒪. A view's
// membership must depend only on the view itself.
type DecisionSet interface {
	// Name identifies the set in protocol names and reports.
	Name() string
	// Contains reports whether the view is in the set.
	Contains(in *views.Interner, id views.ID) bool
}

// predSet is a rule-backed decision set.
type predSet struct {
	name string
	pred func(in *views.Interner, id views.ID) bool
}

// FromPred builds a decision set from a syntactic rule over views.
func FromPred(name string, pred func(in *views.Interner, id views.ID) bool) DecisionSet {
	return &predSet{name: name, pred: pred}
}

func (s *predSet) Name() string { return s.name }

func (s *predSet) Contains(in *views.Interner, id views.ID) bool { return s.pred(in, id) }

// Empty is the empty decision set (the paper's 𝒵^Λ = 𝒪^Λ = ∅: the
// full-information protocol in which no processor ever decides).
func Empty(name string) DecisionSet {
	return FromPred(name, func(*views.Interner, views.ID) bool { return false })
}

// tableSet is an extensional decision set over one system's views: a
// dense membership table indexed by view ID.
type tableSet struct {
	name   string
	in     *views.Interner
	member []bool
	size   int
}

// FromTable builds a decision set from an explicit membership table
// indexed by view ID: view id is in the set iff id < len(member) and
// member[id]. IDs the table does not cover — NoView, or views interned
// after the table was made — are not in the set. The set is bound to
// the interner the IDs came from; Contains panics if queried against a
// different interner. FromTable keeps member without copying it; the
// caller must not modify it afterwards.
func FromTable(name string, in *views.Interner, member []bool) DecisionSet {
	if len(member) > in.Size() {
		panic(fmt.Sprintf("fip: table set %q covers %d views, the interner holds %d", name, len(member), in.Size()))
	}
	size := 0
	for _, m := range member {
		if m {
			size++
		}
	}
	return &tableSet{name: name, in: in, member: member, size: size}
}

func (s *tableSet) Name() string { return s.name }

func (s *tableSet) Contains(in *views.Interner, id views.ID) bool {
	if in != s.in {
		panic(fmt.Sprintf("fip: table set %q queried against a foreign interner", s.name))
	}
	return id >= 0 && int(id) < len(s.member) && s.member[id]
}

// Size returns the number of views in a table-backed set, and -1 for
// rule-backed sets.
func Size(s DecisionSet) int {
	if t, ok := s.(*tableSet); ok {
		return t.size
	}
	return -1
}

// Pair is a decision pair (𝒵, 𝒪): 𝒵 holds the states deciding 0, 𝒪
// the states deciding 1.
type Pair struct {
	Name string
	Z, O DecisionSet
}

// Decide returns the decision the pair prescribes at the view. When
// both sets contain the view — possible only at states whose owner
// knows itself faulty, where both B^N-defined sets hold vacuously —
// 𝒵 wins; such states belong to faulty processors and are invisible
// to every agreement property.
func (p Pair) Decide(in *views.Interner, id views.ID) (types.Value, bool) {
	if p.Z.Contains(in, id) {
		return types.Zero, true
	}
	if p.O.Contains(in, id) {
		return types.One, true
	}
	return types.Unset, false
}

// DecisionAt returns the first time m ≤ horizon at which the run's
// processor p has decided under the pair, with the decided value.
func DecisionAt(sys *system.System, p Pair, run system.Run, proc types.ProcID) (types.Value, types.Round, bool) {
	for m := 0; m <= sys.Horizon; m++ {
		if v, ok := p.Decide(sys.Interner, run.View(m, proc)); ok {
			return v, types.Round(m), true
		}
	}
	return types.Unset, -1, false
}

// Monotone reports whether the pair's decisions are irreversible for
// the nonfaulty processors along every run of the system: once such a
// processor's view enters 𝒵 (resp. 𝒪) it never leaves and never
// switches sets. Knowledge of stable facts has this property under
// perfect recall; the construction's output is checked with it.
// (Faulty processors are exempt: a crashed processor's state sequence
// is immaterial, and a faulty processor may later learn facts that
// would have changed an earlier decision — its first decision stands
// by irreversibility, and no agreement property observes it.)
func Monotone(sys *system.System, p Pair) error {
	for r := 0; r < sys.NumRuns(); r++ {
		run := sys.Run(r)
		for _, proc := range run.Nonfaulty().Members() {
			prev := types.Unset
			for m := 0; m <= sys.Horizon; m++ {
				v, ok := p.Decide(sys.Interner, run.View(m, proc))
				if prev != types.Unset && (!ok || v != prev) {
					return fmt.Errorf("fip: %s: processor %d in run %d decided %s at time %d but %v at time %d",
						p.Name, proc, run.Index, prev, m-1, v, m)
				}
				if ok {
					prev = v
				}
			}
		}
	}
	return nil
}

// Protocol adapts a pair to the sim engine: all processes of one run
// share the given interner, and messages are interned view IDs. It is
// the fast adapter for exhaustive experiments; it must not be used
// where processes run concurrently or messages cross a wire (the
// interner is not synchronized, and IDs mean nothing to another
// interner) — use WireProtocol there.
func Protocol(in *views.Interner, p Pair) sim.Protocol {
	return &fipProtocol{in: in, pair: p}
}

type fipProtocol struct {
	in   *views.Interner
	pair Pair
}

func (f *fipProtocol) Name() string { return "FIP(" + f.pair.Name + ")" }

func (f *fipProtocol) New(env sim.Env) sim.Process { return newFIPProc(f.in, f.pair, env) }

func newFIPProc(in *views.Interner, p Pair, env sim.Env) *fipProc {
	return &fipProc{in: in, pair: p, env: env, view: in.Leaf(env.ID, env.Initial)}
}

type fipProc struct {
	in   *views.Interner
	pair Pair
	env  sim.Env
	view views.ID

	decided bool
	value   types.Value
}

func (p *fipProc) Send(types.Round) []sim.Message {
	out := make([]sim.Message, p.env.Params.N)
	for i := range out {
		out[i] = p.view
	}
	return out
}

func (p *fipProc) Receive(_ types.Round, msgs []sim.Message) {
	received := make([]views.ID, p.env.Params.N)
	for j := range received {
		received[j] = views.NoView
		if msgs[j] != nil {
			received[j] = msgs[j].(views.ID)
		}
	}
	p.view = p.in.Extend(p.env.ID, p.view, received)
}

func (p *fipProc) Decided() (types.Value, bool) {
	if !p.decided {
		if v, ok := p.pair.Decide(p.in, p.view); ok {
			p.decided, p.value = true, v
		}
	}
	if !p.decided {
		return types.Unset, false
	}
	return p.value, true
}

// WireProtocol adapts a pair to any engine, including the TCP
// runtime: every process owns a private interner and exchanges
// serialized views ([]byte) using the views codec. A view that fails
// to decode is treated as an omitted message. Decision rules must be
// predicate-backed (table sets are bound to one interner).
func WireProtocol(p Pair) sim.Protocol { return &wireProtocol{pair: p} }

type wireProtocol struct{ pair Pair }

func (w *wireProtocol) Name() string { return "FIPwire(" + w.pair.Name + ")" }

func (w *wireProtocol) New(env sim.Env) sim.Process {
	return wireProc{newFIPProc(views.NewInterner(env.Params.N), w.pair, env)}
}

// wireProc is the in-process FIP process over its own interner; it
// only encodes the view it sends and decodes the views it receives.
type wireProc struct{ *fipProc }

func (p wireProc) Send(types.Round) []sim.Message {
	data := views.Marshal(p.in, p.view)
	out := make([]sim.Message, p.env.Params.N)
	for i := range out {
		out[i] = data
	}
	return out
}

func (p wireProc) Receive(r types.Round, msgs []sim.Message) {
	ids := make([]sim.Message, len(msgs))
	for j, m := range msgs {
		if m == nil {
			continue
		}
		if id, err := views.Unmarshal(p.in, m.([]byte)); err == nil {
			ids[j] = id
		}
	}
	p.fipProc.Receive(r, ids)
}
