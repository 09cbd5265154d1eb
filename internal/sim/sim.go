// Package sim executes protocols deterministically: a synchronous
// round engine that drives a Protocol against one initial
// configuration and one failure pattern, producing a Trace of every
// decision. This is the reference semantics of Section 2.3 of the
// paper — communication happens during a round (between time m and
// m+1), decisions are made at points — and the only code that applies
// a failure pattern to protocol messages. The resilient TCP runtime
// (nettransport) is tied to it by replay: a live trace must equal Run
// under the pattern reconstructed from what the network delivered.
package sim

import (
	"fmt"
	"io"
	"sync"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// Message is an opaque protocol message. nil means "no message".
type Message any

// Env is the static environment a process is created in.
type Env struct {
	ID      types.ProcID
	Params  types.Params
	Initial types.Value
	Mode    failures.Mode
}

// Process is a single processor's running protocol instance. The
// engine calls Send, then Receive, once per round, and may call
// Decided at any point; implementations need not be safe for
// concurrent use (each engine drives a process from one goroutine).
type Process interface {
	// Send returns the messages the process sends in round r: a slice
	// of length n whose j-th entry is the message for processor j
	// (nil = none). The entry for the process itself is ignored.
	Send(r types.Round) []Message
	// Receive delivers the round-r messages: msgs[j] is the message
	// from processor j, or nil if none arrived.
	Receive(r types.Round, msgs []Message)
	// Decided reports the process's decision. Once it returns
	// (v, true) it must keep doing so with the same v: decisions are
	// irreversible.
	Decided() (types.Value, bool)
}

// Protocol creates processes. Implementations must be stateless
// factories (safe to call New concurrently from multiple engines).
type Protocol interface {
	// Name identifies the protocol in traces and reports.
	Name() string
	// New creates the process for the given environment.
	New(env Env) Process
}

// Trace records one run of a protocol: who decided what, when, and
// how much was said.
type Trace struct {
	Protocol string
	Config   types.Config
	Pattern  *failures.Pattern

	// Sent counts non-nil messages handed to the network (self
	// entries excluded); Delivered counts those that arrived (the
	// difference is the failure pattern's work).
	Sent      int
	Delivered int

	decidedVal []types.Value
	decidedAt  []types.Round
}

// NewTrace allocates an undecided trace. It is used by every engine
// that drives protocols (this package's Run and the TCP runtime).
func NewTrace(name string, cfg types.Config, pat *failures.Pattern) *Trace {
	n := cfg.N()
	tr := &Trace{
		Protocol:   name,
		Config:     cfg,
		Pattern:    pat,
		decidedVal: make([]types.Value, n),
		decidedAt:  make([]types.Round, n),
	}
	for i := 0; i < n; i++ {
		tr.decidedVal[i] = types.Unset
		tr.decidedAt[i] = -1
	}
	return tr
}

// Record notes p's first decision; later calls for the same processor
// are ignored (decisions are irreversible).
func (tr *Trace) Record(p types.ProcID, v types.Value, at types.Round) {
	if tr.decidedAt[p] >= 0 {
		return
	}
	tr.decidedVal[p] = v
	tr.decidedAt[p] = at
}

// DecisionOf returns processor p's decision value and time; ok is
// false if p never decided within the horizon.
func (tr *Trace) DecisionOf(p types.ProcID) (v types.Value, at types.Round, ok bool) {
	if tr.decidedAt[p] < 0 {
		return types.Unset, -1, false
	}
	return tr.decidedVal[p], tr.decidedAt[p], true
}

// Decisions lists all decisions in processor order.
func (tr *Trace) Decisions() []types.Decision {
	var out []types.Decision
	for p := range tr.decidedAt {
		if tr.decidedAt[p] >= 0 {
			out = append(out, types.Decision{Proc: types.ProcID(p), Value: tr.decidedVal[p], Time: tr.decidedAt[p]})
		}
	}
	return out
}

// NonfaultyDecided reports whether every nonfaulty processor decided.
func (tr *Trace) NonfaultyDecided() bool {
	ok := true
	tr.Pattern.Nonfaulty().ForEach(func(p types.ProcID) bool {
		if tr.decidedAt[p] < 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// DiffDecisions compares the decisions of two traces of the same
// protocol run on different engines (or replayed under a
// reconstructed pattern) and describes the first difference; "" means
// every processor decided the same value at the same time on both.
// Protocol names, configurations, and patterns are not compared: the
// hook's purpose is exactly to relate runs whose descriptions differ.
func DiffDecisions(a, b *Trace) string {
	if len(a.decidedAt) != len(b.decidedAt) {
		return fmt.Sprintf("system sizes differ: %d vs %d", len(a.decidedAt), len(b.decidedAt))
	}
	for p := range a.decidedAt {
		av, aat, aok := a.DecisionOf(types.ProcID(p))
		bv, bat, bok := b.DecisionOf(types.ProcID(p))
		switch {
		case aok != bok:
			return fmt.Sprintf("proc %d: decided=%v vs decided=%v", p, aok, bok)
		case aok && (av != bv || aat != bat):
			return fmt.Sprintf("proc %d: decides %s at time %d vs %s at time %d", p, av, aat, bv, bat)
		}
	}
	return ""
}

// DiffTraces is DiffDecisions plus the message counters: it also
// requires the two runs to have sent and delivered the same number of
// messages. This is the strong equivalence used to cross-check a live
// resilient run against its deterministic replay (identical decisions
// AND identical message traffic under the reconstructed pattern).
func DiffTraces(a, b *Trace) string {
	if d := DiffDecisions(a, b); d != "" {
		return d
	}
	if a.Sent != b.Sent {
		return fmt.Sprintf("sent %d vs %d messages", a.Sent, b.Sent)
	}
	if a.Delivered != b.Delivered {
		return fmt.Sprintf("delivered %d vs %d messages", a.Delivered, b.Delivered)
	}
	return ""
}

// Same reports trace equivalence (DiffTraces finds no difference).
func (tr *Trace) Same(o *Trace) bool { return DiffTraces(tr, o) == "" }

// String renders the trace compactly.
func (tr *Trace) String() string {
	s := fmt.Sprintf("%s cfg=%s %s:", tr.Protocol, tr.Config, tr.Pattern)
	for _, d := range tr.Decisions() {
		s += " " + d.String() + ";"
	}
	return s
}

// ValidateRun checks that params, cfg, and pat describe a coherent
// run: matching sizes and at most t faulty processors.
func ValidateRun(params types.Params, cfg types.Config, pat *failures.Pattern) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if cfg.N() != params.N || pat.N() != params.N {
		return fmt.Errorf("sim: size mismatch (params n=%d, config n=%d, pattern n=%d)", params.N, cfg.N(), pat.N())
	}
	if pat.Faulty().Len() > params.T {
		return fmt.Errorf("sim: pattern has %d faulty processors, t=%d", pat.Faulty().Len(), params.T)
	}
	return nil
}

// Observer receives run events as the deterministic engine produces
// them: round boundaries, per-link message fates, and decisions. A
// nil Observer is silent.
//
// Contract: one Observer value observes one run at a time. Within a
// run all methods are called sequentially from the engine's goroutine,
// so implementations need no internal synchronization for per-run
// state; an Observer shared across concurrent runs (or any observer
// writing to a shared sink such as a stream) must synchronize its
// side effects itself. TextObserver is safe to share; custom observers
// that buffer per-run state are not.
type Observer interface {
	// RoundBegin announces round r (1-based).
	RoundBegin(r types.Round)
	// Message reports one required message: delivered is false when
	// the failure pattern suppressed it.
	Message(r types.Round, from, to types.ProcID, delivered bool)
	// Decide reports processor p's (first) decision at time at.
	Decide(at types.Round, p types.ProcID, v types.Value)
}

// Run executes the protocol on the run determined by (cfg, pat) for
// pat.Horizon() rounds and returns its trace.
func Run(p Protocol, params types.Params, cfg types.Config, pat *failures.Pattern) (*Trace, error) {
	return RunObserved(p, params, cfg, pat, nil)
}

// RunObserved is Run with an Observer attached.
func RunObserved(p Protocol, params types.Params, cfg types.Config, pat *failures.Pattern, obs Observer) (*Trace, error) {
	if err := ValidateRun(params, cfg, pat); err != nil {
		return nil, err
	}
	n := params.N
	procs := make([]Process, n)
	for i := 0; i < n; i++ {
		procs[i] = p.New(Env{ID: types.ProcID(i), Params: params, Initial: cfg[i], Mode: pat.Mode()})
	}
	tr := NewTrace(p.Name(), cfg, pat)

	checkDecisions := func(at types.Round) {
		for i, pr := range procs {
			if v, ok := pr.Decided(); ok {
				if _, _, done := tr.DecisionOf(types.ProcID(i)); !done && obs != nil {
					obs.Decide(at, types.ProcID(i), v)
				}
				tr.Record(types.ProcID(i), v, at)
			}
		}
	}
	checkDecisions(0)

	inboxes := make([][]Message, n)
	for i := range inboxes {
		inboxes[i] = make([]Message, n)
	}
	for r := types.Round(1); int(r) <= pat.Horizon(); r++ {
		if obs != nil {
			obs.RoundBegin(r)
		}
		for i := range inboxes {
			for j := range inboxes[i] {
				inboxes[i][j] = nil
			}
		}
		for j := 0; j < n; j++ {
			sender := types.ProcID(j)
			out := procs[j].Send(r)
			if out == nil {
				continue
			}
			if len(out) != n {
				return nil, fmt.Errorf("sim: %s process %d sent %d messages in round %d, want %d",
					p.Name(), j, len(out), r, n)
			}
			for i := 0; i < n; i++ {
				dst := types.ProcID(i)
				if dst == sender || out[i] == nil {
					continue
				}
				tr.Sent++
				delivered := pat.Delivers(sender, r, dst)
				if delivered {
					inboxes[i][j] = out[i]
					tr.Delivered++
				}
				if obs != nil {
					obs.Message(r, sender, dst, delivered)
				}
			}
		}
		for i := 0; i < n; i++ {
			procs[i].Receive(r, inboxes[i])
		}
		checkDecisions(r)
	}
	return tr, nil
}

// TextObserver renders run events as indented text, for command-line
// traces. Writes are serialized by an internal mutex, so one
// TextObserver may be shared across concurrently observed runs
// without tearing lines — though the interleaving of lines from
// different runs is then arbitrary.
type TextObserver struct {
	W io.Writer

	mu sync.Mutex
}

var _ Observer = (*TextObserver)(nil)

// RoundBegin implements Observer.
func (o *TextObserver) RoundBegin(r types.Round) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Fprintf(o.W, "round %d:\n", r)
}

// Message implements Observer.
func (o *TextObserver) Message(r types.Round, from, to types.ProcID, delivered bool) {
	arrow := "→"
	note := ""
	if !delivered {
		arrow = "⇥"
		note = "  (omitted)"
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Fprintf(o.W, "  %d %s %d%s\n", from, arrow, to, note)
}

// Decide implements Observer.
func (o *TextObserver) Decide(at types.Round, p types.ProcID, v types.Value) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Fprintf(o.W, "  * processor %d decides %s at time %d\n", p, v, at)
}

// RunAll executes the protocol on every (configuration, pattern) pair
// and returns the traces in enumeration order: for each pattern, all
// 2^n configurations.
func RunAll(p Protocol, params types.Params, pats []*failures.Pattern) ([]*Trace, error) {
	out := make([]*Trace, 0, len(pats)<<uint(params.N))
	for _, pat := range pats {
		for mask := uint64(0); mask < 1<<uint(params.N); mask++ {
			cfg := types.ConfigFromBits(params.N, mask)
			tr, err := Run(p, params, cfg, pat)
			if err != nil {
				return nil, err
			}
			out = append(out, tr)
		}
	}
	return out, nil
}
