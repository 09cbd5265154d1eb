package core

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// DecisionTable is one pair's decisions over one system: for every
// run and processor, the first time up to the horizon at which the
// processor has decided, and the value. Every property checker and
// the dominance order read it, so a caller that asks several
// questions about one pair (ebacheck asks seven) builds the table
// once with Decisions and calls the methods; the free functions of
// the same names build a table per call.
//
// The table fills itself as it is read — the pair's rules are asked at
// most once per view, each run is walked at most once — so a question
// settled by the first few runs (a dominance that fails early) costs
// those runs only. Reading therefore writes: a table is not safe for
// concurrent use.
type DecisionTable struct {
	sys  *system.System
	pair fip.Pair
	// byView[id] is the pair's decision at view id (a types.Value), or
	// unasked.
	byView []int8
	// first[run*n+proc] is time<<1|value of the first decision, or
	// undecided at the horizon; a run not walked yet has unwalked in its
	// first slot.
	first []int16
}

const (
	unasked   int8  = -2 // no types.Value
	undecided int16 = -1
	unwalked  int16 = -2
)

// Decisions returns the pair's decision table over the system.
func Decisions(sys *system.System, p fip.Pair) *DecisionTable {
	t := &DecisionTable{
		sys:    sys,
		pair:   p,
		byView: make([]int8, sys.Interner.Size()),
		first:  make([]int16, sys.NumRuns()*sys.Params.N),
	}
	for id := range t.byView {
		t.byView[id] = unasked
	}
	for r := 0; r < len(t.first); r += sys.Params.N {
		t.first[r] = unwalked
	}
	return t
}

// row returns the first decisions of the run's processors, walking
// the run on first use.
func (t *DecisionTable) row(run int) []int16 {
	n := t.sys.Params.N
	row := t.first[run*n : (run+1)*n]
	if row[0] != unwalked {
		return row
	}
	for proc := range row {
		row[proc] = undecided
	}
	pending := n
	for m := 0; m <= t.sys.Horizon && pending > 0; m++ {
		for proc, id := range t.sys.Run(run).Row(m) {
			if row[proc] != undecided {
				continue
			}
			v := t.byView[id]
			if v == unasked {
				d, _ := t.pair.Decide(t.sys.Interner, id)
				v = int8(d)
				t.byView[id] = v
			}
			if types.Value(v) != types.Unset {
				row[proc] = int16(m)<<1 | int16(v)
				pending--
			}
		}
	}
	return row
}

// At returns processor proc's first decision in run number run, as
// fip.DecisionAt does.
func (t *DecisionTable) At(run int, proc types.ProcID) (types.Value, types.Round, bool) {
	return decoded(t.row(run)[proc])
}

// decoded unpacks one entry of a walked row.
func decoded(d int16) (types.Value, types.Round, bool) {
	if d == undecided {
		return types.Unset, -1, false
	}
	return types.Value(d & 1), types.Round(d >> 1), true
}

// forNonfaulty calls fn with the first decision of every nonfaulty
// processor of every run, in run then processor order, until fn
// returns false. Each run's 𝒩 and row are read once.
func (t *DecisionTable) forNonfaulty(fn func(run system.Run, proc types.ProcID, v types.Value, at types.Round, ok bool) bool) {
	for ri := 0; ri < t.sys.NumRuns(); ri++ {
		run := t.sys.Run(ri)
		nf := run.Nonfaulty()
		for i, d := range t.row(ri) {
			proc := types.ProcID(i)
			if !nf.Contains(proc) {
				continue
			}
			if v, at, ok := decoded(d); !fn(run, proc, v, at, ok) {
				return
			}
		}
	}
}

// agreement checks that no two of the processors keep admits decide
// differently in one run; kind names the property in the error, and
// keep is given the run's 𝒩, read once per run.
func (t *DecisionTable) agreement(kind string, keep func(run system.Run, nf types.ProcSet, proc types.ProcID, at types.Round) bool) error {
	for ri := 0; ri < t.sys.NumRuns(); ri++ {
		run := t.sys.Run(ri)
		nf := run.Nonfaulty()
		var saw [2]bool
		var who [2]types.ProcID
		for i, d := range t.row(ri) {
			proc := types.ProcID(i)
			if v, at, ok := decoded(d); ok && keep(run, nf, proc, at) {
				saw[v] = true
				who[v] = proc
			}
		}
		if saw[0] && saw[1] {
			return fmt.Errorf("core: %s violates %s agreement in run %d (cfg %s, %s): %d decides 0, %d decides 1",
				t.pair.Name, kind, run.Index, run.Config(), run.Pattern(), who[0], who[1])
		}
	}
	return nil
}

// CheckWeakAgreement verifies condition 2′ of Section 2.1 on every
// run: nonfaulty processors do not decide on different values.
func (t *DecisionTable) CheckWeakAgreement() error {
	return t.agreement("weak", func(_ system.Run, nf types.ProcSet, proc types.ProcID, _ types.Round) bool {
		return nf.Contains(proc)
	})
}

// CheckUniformAgreement verifies the stronger, uniform variant of
// agreement discussed in Section 7 (cf. Neiger/Bazzi): no two
// processors — faulty or not — decide on different values. The
// paper's protocols are not designed for it; the E16 experiment shows
// where it breaks.
func (t *DecisionTable) CheckUniformAgreement() error {
	return t.agreement("uniform", func(run system.Run, _ types.ProcSet, proc types.ProcID, at types.Round) bool {
		// In the crash mode a processor is only guaranteed alive
		// strictly before its crash round; later states are virtual
		// and their decisions do not count.
		if t.sys.Mode == failures.Crash {
			if crash, crashed := run.Pattern().FirstOmission(proc); crashed && at >= crash {
				return false
			}
		}
		return true
	})
}

// CheckWeakValidity verifies condition 3′: when all initial values
// are identical, nonfaulty processors that decide, decide that value
// — with two values, a decided value is some processor's initial one.
func (t *DecisionTable) CheckWeakValidity() (err error) {
	t.forNonfaulty(func(run system.Run, proc types.ProcID, got types.Value, at types.Round, ok bool) bool {
		if ok && !run.HasValue(got) {
			err = fmt.Errorf("core: %s violates weak validity in run %d (cfg %s, %s): %d decides %s at %d",
				t.pair.Name, run.Index, run.Config(), run.Pattern(), proc, got, at)
		}
		return err == nil
	})
	return err
}

// CheckDecision verifies the decision condition of EBA within the
// enumerated horizon: every nonfaulty processor decides by time H.
func (t *DecisionTable) CheckDecision() (err error) {
	t.forNonfaulty(func(run system.Run, proc types.ProcID, _ types.Value, _ types.Round, ok bool) bool {
		if !ok {
			err = fmt.Errorf("core: %s: nonfaulty processor %d never decides in run %d (cfg %s, %s)",
				t.pair.Name, proc, run.Index, run.Config(), run.Pattern())
		}
		return err == nil
	})
	return err
}

// CheckEBA verifies all three EBA conditions (decision, agreement,
// validity restricted to deciders; with decision, weak validity is
// full validity).
func (t *DecisionTable) CheckEBA() error {
	if err := t.CheckDecision(); err != nil {
		return err
	}
	if err := t.CheckWeakAgreement(); err != nil {
		return err
	}
	return t.CheckWeakValidity()
}

// Dominates reports whether the table's pair dominates b's on their
// common system: every nonfaulty processor that decides in a run of b
// decides at least as soon in the corresponding run of a (Section
// 2.3). Corresponding runs share an index because both pairs run over
// the same system.
func (a *DecisionTable) Dominates(b *DecisionTable) bool {
	if a.sys != b.sys {
		panic(fmt.Sprintf("core: decision tables of %s and %s are over different systems", a.pair.Name, b.pair.Name))
	}
	dominates := true
	b.forNonfaulty(func(run system.Run, proc types.ProcID, _ types.Value, bAt types.Round, bOK bool) bool {
		if _, aAt, aOK := a.At(run.Index, proc); bOK && (!aOK || aAt > bAt) {
			dominates = false
		}
		return dominates
	})
	return dominates
}

// StrictlyDominates reports whether a dominates b and some nonfaulty
// processor decides sooner under a in some run (deciding at all when
// b never decides counts as sooner).
func (a *DecisionTable) StrictlyDominates(b *DecisionTable) bool {
	if !a.Dominates(b) {
		return false
	}
	sooner := false
	a.forNonfaulty(func(run system.Run, proc types.ProcID, _ types.Value, aAt types.Round, aOK bool) bool {
		if _, bAt, bOK := b.At(run.Index, proc); aOK && (!bOK || aAt < bAt) {
			sooner = true
		}
		return !sooner
	})
	return sooner
}

// MaxNonfaultyDecisionRound returns the largest decision time of any
// nonfaulty processor across the system, and whether every nonfaulty
// processor decided.
func (t *DecisionTable) MaxNonfaultyDecisionRound() (max types.Round, all bool) {
	all = true
	t.forNonfaulty(func(_ system.Run, _ types.ProcID, _ types.Value, at types.Round, ok bool) bool {
		if !ok {
			all = false
		} else if at > max {
			max = at
		}
		return true
	})
	return max, all
}

// DecisionHistogram counts nonfaulty decisions per decision time.
// Undecided nonfaulty processors are counted under the key -1.
func (t *DecisionTable) DecisionHistogram() map[types.Round]int {
	h := make(map[types.Round]int)
	t.forNonfaulty(func(_ system.Run, _ types.ProcID, _ types.Value, at types.Round, _ bool) bool {
		h[at]++ // At reports an undecided processor at time -1
		return true
	})
	return h
}

// FMaxDecisionBound returns, for each number f of visibly faulty
// processors occurring in the system, the maximum decision time of a
// nonfaulty processor in runs with exactly f visible failures — the
// quantity bounded by f+1 in Proposition 6.4.
func (t *DecisionTable) FMaxDecisionBound() map[int]types.Round {
	out := make(map[int]types.Round)
	t.forNonfaulty(func(run system.Run, _ types.ProcID, _ types.Value, at types.Round, ok bool) bool {
		if !ok {
			at = types.Round(t.sys.Horizon + 1) // sentinel: undecided
		}
		if f := run.Pattern().VisiblyFaulty().Len(); at > out[f] {
			out[f] = at
		}
		return true
	})
	return out
}

// The free functions answer one question about one pair: each builds
// the pair's decision table and calls the method of the same name.

// CheckWeakAgreement is DecisionTable.CheckWeakAgreement over tables built for the call.
func CheckWeakAgreement(sys *system.System, p fip.Pair) error {
	return Decisions(sys, p).CheckWeakAgreement()
}

// CheckWeakValidity is DecisionTable.CheckWeakValidity over tables built for the call.
func CheckWeakValidity(sys *system.System, p fip.Pair) error {
	return Decisions(sys, p).CheckWeakValidity()
}

// CheckDecision is DecisionTable.CheckDecision over tables built for the call.
func CheckDecision(sys *system.System, p fip.Pair) error { return Decisions(sys, p).CheckDecision() }

// CheckEBA is DecisionTable.CheckEBA over tables built for the call.
func CheckEBA(sys *system.System, p fip.Pair) error { return Decisions(sys, p).CheckEBA() }

// CheckUniformAgreement is DecisionTable.CheckUniformAgreement over tables built for the call.
func CheckUniformAgreement(sys *system.System, p fip.Pair) error {
	return Decisions(sys, p).CheckUniformAgreement()
}

// Dominates is DecisionTable.Dominates over tables built for the call.
func Dominates(sys *system.System, a, b fip.Pair) bool {
	return Decisions(sys, a).Dominates(Decisions(sys, b))
}

// StrictlyDominates is DecisionTable.StrictlyDominates over tables built for the call.
func StrictlyDominates(sys *system.System, a, b fip.Pair) bool {
	return Decisions(sys, a).StrictlyDominates(Decisions(sys, b))
}

// MaxNonfaultyDecisionRound is DecisionTable.MaxNonfaultyDecisionRound over tables built for the call.
func MaxNonfaultyDecisionRound(sys *system.System, p fip.Pair) (types.Round, bool) {
	return Decisions(sys, p).MaxNonfaultyDecisionRound()
}

// DecisionHistogram is DecisionTable.DecisionHistogram over tables built for the call.
func DecisionHistogram(sys *system.System, p fip.Pair) map[types.Round]int {
	return Decisions(sys, p).DecisionHistogram()
}

// FMaxDecisionBound is DecisionTable.FMaxDecisionBound over tables built for the call.
func FMaxDecisionBound(sys *system.System, p fip.Pair) map[int]types.Round {
	return Decisions(sys, p).FMaxDecisionBound()
}

// IsOptimal applies the characterization of Theorem 5.3: a
// full-information nontrivial agreement protocol FIP(𝒵, 𝒪) is optimal
// iff for every processor i,
//
//	i ∈ 𝒩 ⇒ (decide_i(0) ⟺ B^N_i(∃0 ∧ C□_{𝒩∧𝒪}∃0 ∧ ¬decide_i(1)))
//	i ∈ 𝒩 ⇒ (decide_i(1) ⟺ B^N_i(∃1 ∧ C□_{𝒩∧𝒵}∃1 ∧ ¬decide_i(0)))
//
// are valid in the system. It returns a counterexample description
// when the conditions fail.
func IsOptimal(e *knowledge.Evaluator, p fip.Pair) (bool, string) {
	return IsOptimalSpec(e, EBASpec(), p)
}

func describeFailure(sys *system.System, name, cond string, proc types.ProcID, pt system.Point) string {
	run := sys.RunOf(pt)
	return fmt.Sprintf("%s fails Theorem 5.3 %s for processor %d at time %d of run %d (cfg %s, %s)",
		name, cond, proc, pt.Time, run.Index, run.Config(), run.Pattern())
}
