// Package eba is a reproduction of Halpern, Moses, and Waarts,
// "A Characterization of Eventual Byzantine Agreement" (PODC 1990):
// a library for building, running, model-checking, and optimizing
// eventual-Byzantine-agreement protocols in the crash,
// sending-omission, receiving-omission, and general-omission failure
// modes (the latter two following arXiv:2305.06271).
//
// The package is a facade over the internal packages:
//
//   - failure patterns and adversaries (crash / sending omission /
//     receiving omission / general omission), with exhaustive
//     enumerators and seeded samplers;
//   - two execution engines for the same Protocol interface: the
//     deterministic synchronous round engine, which alone applies a
//     failure pattern to messages, and a live TCP runtime with chaos
//     injection whose runs replay on it exactly (VerifyResilient);
//   - full-information systems: every run of the full-information
//     protocol for given (n, t, horizon, mode), hash-consed;
//   - a knowledge model checker for the paper's epistemic logic —
//     K_i, B^S_i, E_S, C_S, □̂, E□_S, and continual common knowledge
//     C□_S (computed by its S-□-reachability characterization);
//   - decision pairs (𝒵, 𝒪) and the runnable protocols FIP(𝒵, 𝒪);
//   - the paper's construction: the prime/double-prime improvement
//     steps, the two-step optimization (Theorem 5.2), and the
//     optimality oracle (Theorem 5.3);
//   - the paper's protocols: P0/P1, P0opt, the 0-chain omission-mode
//     EBA protocol, and the knowledge-derived optima;
//   - simultaneous Byzantine agreement (SBA) via common knowledge,
//     for the EBA-vs-SBA comparisons that motivate the paper.
//
// # Quick start
//
//	params := eba.Params{N: 4, T: 1}
//	sys, _ := eba.NewSystem(params, eba.Crash, 3, 0)
//	e := eba.NewEvaluator(sys)
//
//	// Optimize the never-deciding protocol into the crash-mode
//	// optimum (Theorem 6.1), and verify it.
//	opt := eba.TwoStep(e, eba.NeverDecide())
//	if err := eba.CheckEBA(sys, opt); err != nil { ... }
//	if ok, _ := eba.IsOptimal(e, opt); !ok { ... }
//
//	// Run the concrete equivalent on one run.
//	pat := eba.Silent(eba.Crash, 4, 3, 0, 2)
//	tr, _ := eba.Run(eba.P0Opt(), params, eba.ConfigFromBits(4, 0b1110), pat)
package eba

import (
	"math/rand"

	"github.com/eventual-agreement/eba/internal/chaos"
	"github.com/eventual-agreement/eba/internal/conform"
	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/nettransport"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/sba"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
	"github.com/eventual-agreement/eba/internal/witness"
)

// Core vocabulary, re-exported.
type (
	// Value is an agreement value: Zero, One, or Unset.
	Value = types.Value
	// ProcID identifies a processor (0-based).
	ProcID = types.ProcID
	// Round is a round/time index.
	Round = types.Round
	// Config is an initial configuration (one value per processor).
	Config = types.Config
	// Params is (n, t): system size and fault bound.
	Params = types.Params
	// Decision is one decision event.
	Decision = types.Decision
	// ProcSet is a set of processors.
	ProcSet = types.ProcSet

	// Mode is a failure mode: Crash, Omission, ReceivingOmission, or
	// GeneralOmission.
	Mode = failures.Mode
	// Pattern is a failure pattern: who fails, and how.
	Pattern = failures.Pattern
	// Behavior is one faulty processor's omission schedule.
	Behavior = failures.Behavior

	// Protocol is a runnable protocol (factory of per-processor
	// processes).
	Protocol = sim.Protocol
	// Process is one running protocol instance.
	Process = sim.Process
	// Env is the environment a process is created in.
	Env = sim.Env
	// Message is an opaque protocol message.
	Message = sim.Message
	// Trace records the decisions of one run.
	Trace = sim.Trace

	// System is an enumerated full-information system.
	System = system.System
	// Point is a point (run, time) of a system.
	Point = system.Point
	// SysRun is one run of a system.
	SysRun = system.Run

	// Interner hash-conses full-information views.
	Interner = views.Interner
	// ViewID is an interned view.
	ViewID = views.ID

	// Formula is an epistemic formula.
	Formula = knowledge.Formula
	// NonrigidSet is a point-varying processor set.
	NonrigidSet = knowledge.NonrigidSet
	// Evaluator model-checks formulas over a system.
	Evaluator = knowledge.Evaluator
	// Bits is a truth table over a system's points.
	Bits = knowledge.Bits

	// DecisionSet is a set of local states (the paper's 𝒵 or 𝒪).
	DecisionSet = fip.DecisionSet
	// Pair is a decision pair (𝒵, 𝒪).
	Pair = fip.Pair

	// Prop63Report is the result of the Proposition 6.3 certificate
	// search.
	Prop63Report = witness.Report
)

// Values and modes.
const (
	Zero  = types.Zero
	One   = types.One
	Unset = types.Unset

	Crash             = failures.Crash
	Omission          = failures.Omission
	ReceivingOmission = failures.ReceivingOmission
	GeneralOmission   = failures.GeneralOmission

	// NoView marks an absent message in a view.
	NoView = views.NoView
)

// ParseMode maps a mode name ("crash", "omission",
// "receiving-omission", "general-omission", or a short alias) to its
// Mode; unknown names error with failures.ErrUnknownMode.
func ParseMode(s string) (Mode, error) { return failures.ParseMode(s) }

// ConfigFromBits builds the n-processor configuration whose processor
// i has initial value bit i of mask.
func ConfigFromBits(n int, mask uint64) Config { return types.ConfigFromBits(n, mask) }

// NewConfig builds and validates a configuration.
func NewConfig(vals ...Value) (Config, error) { return types.NewConfig(vals...) }

// Failure patterns.

// FailureFree returns the pattern with no failures.
func FailureFree(mode Mode, n, h int) *Pattern { return failures.FailureFree(mode, n, h) }

// Silent makes processor p faulty and silent from round k on (modes
// with sending faults).
func Silent(mode Mode, n, h int, p ProcID, k int) *Pattern {
	return failures.Silent(mode, n, h, p, k)
}

// Deaf makes processor p faulty and deaf from round k on: it receives
// nothing from round k onward (modes with receiving faults).
func Deaf(mode Mode, n, h int, p ProcID, k int) *Pattern {
	return failures.Deaf(mode, n, h, p, k)
}

// SilentExcept makes p faulty and silent except for one delivery to
// dst in round m (omission mode; the Proposition 6.3 construction).
func SilentExcept(n, h int, p ProcID, m int, dst ProcID) *Pattern {
	return failures.SilentExcept(n, h, p, m, dst)
}

// NewPattern builds and validates an arbitrary pattern.
func NewPattern(mode Mode, n, h int, faulty ProcSet, behavior map[ProcID]*Behavior) (*Pattern, error) {
	return failures.NewPattern(mode, n, h, faulty, behavior)
}

// EnumCrash enumerates all canonical crash patterns.
func EnumCrash(n, t, h int) ([]*Pattern, error) { return failures.EnumCrash(n, t, h) }

// EnumOmission enumerates all omission patterns (limit > 0 bounds the
// count; 0 means unlimited).
func EnumOmission(n, t, h, limit int) ([]*Pattern, error) {
	return failures.EnumOmission(n, t, h, limit)
}

// SampleCrash draws random crash patterns (the failure-free pattern
// first, then distinct samples).
func SampleCrash(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return failures.SampleCrash(n, t, h, count, rng)
}

// SampleOmission draws random omission patterns.
func SampleOmission(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return failures.SampleOmission(n, t, h, count, rng)
}

// EnumReceiving enumerates all receiving-omission patterns (limit > 0
// bounds the count; 0 means unlimited).
func EnumReceiving(n, t, h, limit int) ([]*Pattern, error) {
	return failures.EnumReceiving(n, t, h, limit)
}

// EnumGeneral enumerates all canonical general-omission patterns
// (limit > 0 bounds the count; 0 means unlimited).
func EnumGeneral(n, t, h, limit int) ([]*Pattern, error) {
	return failures.EnumGeneral(n, t, h, limit)
}

// SampleReceiving draws random receiving-omission patterns.
func SampleReceiving(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return failures.SampleReceiving(n, t, h, count, rng)
}

// SampleGeneral draws random canonical general-omission patterns.
func SampleGeneral(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return failures.SampleGeneral(n, t, h, count, rng)
}

// Engines.

// Run executes a protocol deterministically on one run.
func Run(p Protocol, params Params, cfg Config, pat *Pattern) (*Trace, error) {
	return sim.Run(p, params, cfg, pat)
}

// RunAll executes a protocol on every configuration × pattern.
func RunAll(p Protocol, params Params, pats []*Pattern) ([]*Trace, error) {
	return sim.RunAll(p, params, pats)
}

// The resilient runtime: deadline-driven rounds over TCP, seeded
// chaos injection, and fault-pattern reconstruction.

type (
	// ResilientOptions configures RunResilient (mode, horizon, round
	// deadline, chaos plan, reconnect backoff).
	ResilientOptions = nettransport.Options
	// ReconstructionError reports a run whose observed behaviour has
	// no legal failure pattern of its mode within the fault bound.
	ReconstructionError = nettransport.ReconstructionError

	// ChaosPlan is a seeded, deterministic schedule of network faults
	// that realizes a legal failure pattern on the wire.
	ChaosPlan = chaos.Plan
	// ChaosMechanism is a wire-level fault mechanism.
	ChaosMechanism = chaos.Mechanism
)

// Chaos mechanisms.
const (
	ChaosDrop      = chaos.Drop
	ChaosDelay     = chaos.Delay
	ChaosTruncate  = chaos.Truncate
	ChaosKill      = chaos.Kill
	ChaosPartition = chaos.Partition
)

// NewChaosPlan builds a seeded chaos plan for an (n, t) system over h
// rounds; allowed restricts the mechanisms (empty means all legal for
// the mode — crash mode permits only drop and kill).
func NewChaosPlan(mode Mode, params Params, h int, seed int64, allowed ...ChaosMechanism) (*ChaosPlan, error) {
	return chaos.New(mode, params, h, seed, allowed...)
}

// ParseChaosMechanism parses a mechanism name (drop, delay, truncate,
// kill, partition).
func ParseChaosMechanism(s string) (ChaosMechanism, error) { return chaos.ParseMechanism(s) }

// RunResilient executes a protocol over a TCP mesh with
// deadline-driven round synchronization: a frame that misses its round
// deadline is an omission by its sender, dead connections are redialed
// with exponential backoff (omission mode), and the run's effective
// failure pattern is reconstructed from observed message fates and
// attached to the returned trace. Protocol messages must be []byte
// (FIPWire qualifies).
func RunResilient(p Protocol, params Params, cfg Config, opts ResilientOptions) (*Trace, error) {
	return nettransport.RunResilient(p, params, cfg, opts)
}

// VerifyResilient replays a resilient run's reconstructed pattern on
// the deterministic engine and reports the first divergence; nil means
// the live run is trace-equivalent to its paper-semantics replay.
func VerifyResilient(p Protocol, params Params, live *Trace) error {
	return nettransport.VerifyReconstruction(p, params, live)
}

// DiffTraces compares two traces' decisions (value and time per
// processor) and sent/delivered message counters and describes the
// first divergence; "" means equal. It is the equivalence
// VerifyResilient checks.
func DiffTraces(a, b *Trace) string { return sim.DiffTraces(a, b) }

// Observer receives run events from the deterministic engine.
type Observer = sim.Observer

// TextObserver renders run events as indented text.
type TextObserver = sim.TextObserver

// RunObserved executes a protocol deterministically with an Observer
// attached (round boundaries, message fates, decisions).
func RunObserved(p Protocol, params Params, cfg Config, pat *Pattern, obs Observer) (*Trace, error) {
	return sim.RunObserved(p, params, cfg, pat, obs)
}

// Systems and knowledge.

// NewSystem enumerates the full-information system for the mode
// (exhaustive adversary). For Omission, limit > 0 bounds the pattern
// count.
func NewSystem(params Params, mode Mode, horizon, limit int) (*System, error) {
	return system.Enumerate(params, mode, horizon, limit)
}

// NewSystemFromPatterns enumerates the system over an explicit
// adversary class.
func NewSystemFromPatterns(params Params, mode Mode, horizon int, pats []*Pattern) (*System, error) {
	return system.FromPatterns(params, mode, horizon, pats)
}

// NewEvaluator creates a model checker for the system.
func NewEvaluator(sys *System) *Evaluator { return knowledge.NewEvaluator(sys) }

// SetParallelism sets the process-wide default worker bound inherited
// by evaluators created after the call (w <= 0 restores all-cores,
// w == 1 forces sequential evaluation). Truth tables are bit-identical
// at every setting.
func SetParallelism(w int) { knowledge.SetDefaultParallelism(w) }

// Formula constructors (see the knowledge package for semantics).

// Exists0 is the basic fact ∃0.
func Exists0() Formula { return knowledge.Exists0() }

// Exists1 is the basic fact ∃1.
func Exists1() Formula { return knowledge.Exists1() }

// Not is negation.
func Not(f Formula) Formula { return knowledge.Not(f) }

// And is conjunction.
func And(fs ...Formula) Formula { return knowledge.And(fs...) }

// Or is disjunction.
func Or(fs ...Formula) Formula { return knowledge.Or(fs...) }

// Implies is material implication.
func Implies(a, b Formula) Formula { return knowledge.Implies(a, b) }

// Iff is material equivalence.
func Iff(a, b Formula) Formula { return knowledge.Iff(a, b) }

// K is knowledge: K_i φ.
func K(i ProcID, f Formula) Formula { return knowledge.K(i, f) }

// B is belief relative to a nonrigid set: B^S_i φ = K_i(i ∈ S ⇒ φ).
func B(i ProcID, s NonrigidSet, f Formula) Formula { return knowledge.B(i, s, f) }

// E is "everyone in S believes".
func E(s NonrigidSet, f Formula) Formula { return knowledge.E(s, f) }

// C is common knowledge among the nonrigid set S.
func C(s NonrigidSet, f Formula) Formula { return knowledge.C(s, f) }

// Box is the all-times modality □̂.
func Box(f Formula) Formula { return knowledge.Box(f) }

// Diamond is the some-time modality ◇̂.
func Diamond(f Formula) Formula { return knowledge.Diamond(f) }

// EBox is E□_S φ = □̂ E_S φ.
func EBox(s NonrigidSet, f Formula) Formula { return knowledge.EBox(s, f) }

// CBox is continual common knowledge C□_S φ, the paper's new
// operator.
func CBox(s NonrigidSet, f Formula) Formula { return knowledge.CBox(s, f) }

// Henceforth is the future-time □ (now and later).
func Henceforth(f Formula) Formula { return knowledge.Henceforth(f) }

// Future is the future-time ◇ (now or later).
func Future(f Formula) Formula { return knowledge.Future(f) }

// EDiamond is E◇_S φ: everyone in S will eventually believe φ.
func EDiamond(s NonrigidSet, f Formula) Formula { return knowledge.EDiamond(s, f) }

// CDiamond is eventual common knowledge C◇_S φ (Section 3.2: too
// weak a basis for EBA decisions — the motivation for C□).
func CDiamond(s NonrigidSet, f Formula) Formula { return knowledge.CDiamond(s, f) }

// Nonfaulty is the nonrigid set 𝒩.
func Nonfaulty() NonrigidSet { return knowledge.Nonfaulty() }

// NAnd is 𝒩 ∧ 𝒜 for a decision set 𝒜.
func NAnd(a DecisionSet) NonrigidSet { return core.NAnd(a) }

// Decision pairs and protocols.

// NeverDecide is F^Λ: the full-information protocol in which no
// processor ever decides — the canonical seed for the optimization.
func NeverDecide() Pair {
	return Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
}

// FIP adapts a pair to the deterministic engine (shared interner).
func FIP(in *Interner, p Pair) Protocol { return fip.Protocol(in, p) }

// FIPWire adapts a pair to any engine including RunResilient
// (per-process interners, serialized views).
func FIPWire(p Pair) Protocol { return fip.WireProtocol(p) }

// DecisionAt returns the pair's decision for a processor in a run.
func DecisionAt(sys *System, p Pair, run SysRun, proc ProcID) (Value, Round, bool) {
	return fip.DecisionAt(sys, p, run, proc)
}

// P0 is the LF82 flooding protocol biased to 0 (Proposition 2.1).
func P0() Protocol { return protocols.LF82(types.Zero) }

// P1 is the symmetric protocol biased to 1.
func P1() Protocol { return protocols.LF82(types.One) }

// P0Opt is the optimal crash-mode EBA protocol of Section 2.2.
func P0Opt() Protocol { return protocols.P0Opt() }

// P0OptHalting is P0opt with the halting optimization of Section 2.3
// (stop sending one round after deciding).
func P0OptHalting() Protocol { return protocols.P0OptHalting() }

// F0Pair is the Section 3.2 eventual-common-knowledge protocol F₀,
// materialized over the evaluator's system.
func F0Pair(e *Evaluator) Pair { return core.F0Pair(e) }

// Chain0 is the certificate-passing 0-chain EBA protocol for the
// omission mode (Section 6.2).
func Chain0() Protocol { return protocols.Chain0() }

// P0Pair is P0's decision rule as a pair.
func P0Pair(t int) Pair { return protocols.P0Pair(t) }

// P1Pair is P1's decision rule as a pair.
func P1Pair(t int) Pair { return protocols.P1Pair(t) }

// P0OptPair is P0opt's decision rule as a pair (= 𝒵^cr, 𝒪^cr of
// Theorem 6.1).
func P0OptPair() Pair { return protocols.P0OptPair() }

// Chain0Pair is the syntactic decision pair of the chain protocol
// (= FIP(𝒵⁰, 𝒪⁰) at nonfaulty states).
func Chain0Pair() Pair { return protocols.Chain0SyntacticPair() }

// Chain0SemanticPair materializes FIP(𝒵⁰, 𝒪⁰) semantically over the
// evaluator's system.
func Chain0SemanticPair(e *Evaluator) Pair { return protocols.Chain0SemanticPair(e) }

// The construction (Section 5).

// PrimeStep optimizes the decision on 0 given the pair's rule for 1
// (Proposition 5.1).
func PrimeStep(e *Evaluator, p Pair, name string) Pair { return core.PrimeStep(e, p, name) }

// DoublePrimeStep optimizes the decision on 1 given the pair's rule
// for 0 (Proposition 5.1).
func DoublePrimeStep(e *Evaluator, p Pair, name string) Pair {
	return core.DoublePrimeStep(e, p, name)
}

// TwoStep is the two-step construction of Theorem 5.2: it turns any
// full-information nontrivial agreement protocol into an optimal one.
func TwoStep(e *Evaluator, p Pair) Pair { return core.TwoStep(e, p) }

// General coordination problems (Section 7).

// CoordinationSpec is a one-shot binary coordination problem: two
// actions with run-constant enabling facts (EBA is Phi0 = ∃0,
// Phi1 = ∃1).
type CoordinationSpec = core.Spec

// EBASpec is the standard EBA instance.
func EBASpec() CoordinationSpec { return core.EBASpec() }

// TwoStepSpec runs the two-step construction for an arbitrary
// coordination spec.
func TwoStepSpec(e *Evaluator, spec CoordinationSpec, p Pair) Pair {
	return core.TwoStepSpec(e, spec, p)
}

// IsOptimalSpec is the generalized Theorem 5.3 oracle.
func IsOptimalSpec(e *Evaluator, spec CoordinationSpec, p Pair) (bool, string) {
	return core.IsOptimalSpec(e, spec, p)
}

// CheckEnabling verifies the generalized validity: nonfaulty
// processors decide an action only in runs enabling it.
func CheckEnabling(e *Evaluator, spec CoordinationSpec, p Pair) error {
	return core.CheckEnabling(e, spec, p)
}

// ParseFormula parses the ASCII formula syntax used by cmd/ebaq (see
// the knowledge package's Parse for the grammar).
func ParseFormula(src string) (Formula, error) { return knowledge.Parse(src) }

// Checkers.

// DecisionTable is one pair's first decision per run and processor;
// its methods are the checkers below, for callers that ask several
// questions about one pair.
type DecisionTable = core.DecisionTable

// Decisions tabulates the pair's decisions over the system.
func Decisions(sys *System, p Pair) *DecisionTable { return core.Decisions(sys, p) }

// CheckEBA verifies decision, agreement, and validity on every run.
func CheckEBA(sys *System, p Pair) error { return core.CheckEBA(sys, p) }

// CheckDecision verifies that every nonfaulty processor decides
// within the horizon.
func CheckDecision(sys *System, p Pair) error { return core.CheckDecision(sys, p) }

// CheckWeakAgreement verifies that nonfaulty processors never decide
// differently.
func CheckWeakAgreement(sys *System, p Pair) error { return core.CheckWeakAgreement(sys, p) }

// CheckWeakValidity verifies that unanimous inputs force the decision.
func CheckWeakValidity(sys *System, p Pair) error { return core.CheckWeakValidity(sys, p) }

// Dominates reports whether a dominates b (every nonfaulty decider
// decides at least as soon).
func Dominates(sys *System, a, b Pair) bool { return core.Dominates(sys, a, b) }

// StrictlyDominates reports domination with a strict win somewhere.
func StrictlyDominates(sys *System, a, b Pair) bool { return core.StrictlyDominates(sys, a, b) }

// IsOptimal applies the Theorem 5.3 characterization of optimal
// protocols; on failure it returns a counterexample description.
func IsOptimal(e *Evaluator, p Pair) (bool, string) { return core.IsOptimal(e, p) }

// EqualOnNonfaulty reports whether two pairs decide identically at
// all nonfaulty states (the equivalence of Theorem 6.2).
func EqualOnNonfaulty(sys *System, a, b Pair) (bool, string) {
	return core.EqualOnNonfaulty(sys, a, b)
}

// MaxNonfaultyDecisionRound returns the worst-case decision time.
func MaxNonfaultyDecisionRound(sys *System, p Pair) (Round, bool) {
	return core.MaxNonfaultyDecisionRound(sys, p)
}

// DecisionHistogram counts nonfaulty decisions per decision time
// (undecided under key -1).
func DecisionHistogram(sys *System, p Pair) map[Round]int {
	return core.DecisionHistogram(sys, p)
}

// CheckProp63 certifies Proposition 6.3 (F^Λ,2 never decides in the
// all-ones omission run with a silent processor, t ≥ 2) by sound
// witness search.
func CheckProp63(n, t, h int) (*Prop63Report, error) { return witness.CheckProp63(n, t, h) }

// Simultaneous Byzantine agreement (the contrast class).

// SBAOutcome is a run's simultaneous decision.
type SBAOutcome = sba.Outcome

// FloodSet is the textbook t+1-round simultaneous agreement protocol
// for the crash mode.
func FloodSet() Protocol { return sba.FloodSet() }

// SBAOutcomes evaluates the optimal common-knowledge SBA rule (DM90)
// on every run of the evaluator's system.
func SBAOutcomes(e *Evaluator) []SBAOutcome { return sba.CommonKnowledgeOutcomes(e) }

// CheckSBAOutcomes verifies decision and validity for per-run
// simultaneous outcomes.
func CheckSBAOutcomes(sys *System, outs []SBAOutcome) error { return sba.CheckOutcomes(sys, outs) }

// The conformance harness (cmd/ebaconform).

// ConformOptions configures a randomized conformance run; see the
// conform package for its pillars (differential, claims, engineering
// laws, cluster).
type ConformOptions = conform.Options

// ConformResult summarizes a conformance run.
type ConformResult = conform.Result

// ConformViolation is one failed check — also the JSONL corpus record
// format; its Seed field replays the scenario alone.
type ConformViolation = conform.Violation

// RunConformance executes seeded scenarios across the live runtime,
// the deterministic engine, and the query engine, machine-checking
// every applicable paper claim of the experiment registry on every
// generated system.
func RunConformance(opts ConformOptions) (*ConformResult, error) { return conform.Run(opts) }

// ReadConformCorpus parses a JSONL failure corpus written by a
// conformance run.
func ReadConformCorpus(path string) ([]ConformViolation, error) { return conform.ReadCorpus(path) }
