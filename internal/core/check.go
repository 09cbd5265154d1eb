package core

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// DecisionTable is one pair's decisions over one system. A decision
// pair is a pair of sets of local states (Proposition 2.2), so a
// processor's first decision is a fact about its view: the table keeps,
// per view, the first decision along that view's own history (the view,
// its Prev, and so on back to time 0), and a run's decision for p is
// the entry of p's view at the horizon. Every property checker and the
// dominance order read it, so a caller that asks several questions
// about one pair (ebacheck asks seven) builds the table once with
// Decisions and calls the methods; the free functions of the same names
// build a table per call.
//
// Decision, the worst case, the histogram and dominance are counts over
// (run, nonfaulty processor) pairs that depend only on the processor's
// final view, so they loop over views, each weighted by
// System.NonfaultyHolders. Agreement relates two processors of one run,
// validity a decision to the run's configuration, and the remaining
// checks read the run's pattern: those sweep runs, reading only the
// horizon row and taking 𝒩 once per pattern. A failing per-view check
// finds its witness with a run-order sweep, so every error names the
// first run and processor a sweep over runs would name.
//
// The table fills itself as it is read — the pair's rules are asked at
// most once per view and never past a decision — so a question settled
// by the first few views (a dominance that fails early) costs those
// views and their histories only. Reading therefore writes: a table is
// not safe for concurrent use.
type DecisionTable struct {
	sys  *system.System
	pair fip.Pair
	// first[id] is unasked, undecided along the history, or
	// decided(time, value) of the history's first decision.
	first []int16
}

const (
	unasked   int16 = 0
	undecided int16 = 1
)

// decided encodes a first decision at time at with value v.
func decided(at types.Round, v types.Value) int16 { return 2 + (int16(at)<<1 | int16(v)) }

// decoded unpacks one entry of the table.
func decoded(d int16) (types.Value, types.Round, bool) {
	if d == undecided {
		return types.Unset, -1, false
	}
	d -= 2
	return types.Value(d & 1), types.Round(d >> 1), true
}

// Decisions returns the pair's decision table over the system.
func Decisions(sys *system.System, p fip.Pair) *DecisionTable {
	return &DecisionTable{sys: sys, pair: p, first: make([]int16, sys.Interner.Size())}
}

// of returns the first decision along view id's history.
func (t *DecisionTable) of(id views.ID) int16 {
	if d := t.first[id]; d != unasked {
		return d
	}
	return t.fill(id)
}

// fill computes an unasked entry, asking the pair at id only when no
// earlier view of the history decided.
func (t *DecisionTable) fill(id views.ID) int16 {
	in := t.sys.Interner
	d := undecided
	if prev := in.Prev(id); prev != views.NoView {
		d = t.of(prev)
	}
	if d == undecided {
		if v, ok := t.pair.Decide(in, id); ok {
			d = decided(in.Time(id), v)
		}
	}
	t.first[id] = d
	return d
}

// At returns processor proc's first decision in run number run, as
// fip.DecisionAt does.
func (t *DecisionTable) At(run int, proc types.ProcID) (types.Value, types.Round, bool) {
	return decoded(t.of(t.sys.Run(run).View(t.sys.Horizon, proc)))
}

// forViews calls fn with every view some nonfaulty processor holds at
// the horizon, its weight (System.NonfaultyHolders) and its entry, in
// view order, until fn returns false.
func (t *DecisionTable) forViews(fn func(id views.ID, weight int32, d int16) bool) {
	for id, w := range t.sys.NonfaultyHolders() {
		if w != 0 && !fn(views.ID(id), w, t.of(views.ID(id))) {
			return
		}
	}
}

// forRuns calls fn with every run, its 𝒩 and its horizon row, in run
// order, until fn returns false. Runs are pattern-major, so 𝒩 is read
// once per pattern.
func (t *DecisionTable) forRuns(fn func(run system.Run, nf types.ProcSet, row []views.ID) bool) {
	sys, tbl := t.sys, t.sys.Table()
	pat, nf := int32(-1), types.ProcSet(0)
	for r, pi := range tbl.PatternOf {
		if pi != pat {
			pat, nf = pi, tbl.Patterns[pi].Nonfaulty()
		}
		if run := sys.Run(r); !fn(run, nf, run.Row(sys.Horizon)) {
			return
		}
	}
}

// forNonfaulty calls fn with the entry of every nonfaulty processor of
// every run, in run then processor order, until fn returns false.
func (t *DecisionTable) forNonfaulty(fn func(run system.Run, proc types.ProcID, d int16) bool) {
	t.forRuns(func(run system.Run, nf types.ProcSet, row []views.ID) bool {
		for p, id := range row {
			if proc := types.ProcID(p); nf.Contains(proc) && !fn(run, proc, t.of(id)) {
				return false
			}
		}
		return true
	})
}

// agreement checks that no two processors that count decide
// differently in one run; kind names the property in the error. Weak
// agreement counts the nonfaulty processors, uniform agreement every
// processor alive when it decides.
func (t *DecisionTable) agreement(kind string, uniform bool) (err error) {
	// In the crash mode a processor is only guaranteed alive strictly
	// before its crash round; later states are virtual and their
	// decisions do not count.
	crashes := uniform && t.sys.Mode == failures.Crash
	t.forRuns(func(run system.Run, nf types.ProcSet, row []views.ID) bool {
		var saw [2]bool
		var who [2]types.ProcID
		for p, id := range row {
			proc := types.ProcID(p)
			v, at, ok := decoded(t.of(id))
			if !ok || !uniform && !nf.Contains(proc) {
				continue
			}
			if crashes {
				if crash, crashed := run.Pattern().FirstOmission(proc); crashed && at >= crash {
					continue
				}
			}
			saw[v], who[v] = true, proc
		}
		if saw[0] && saw[1] {
			err = fmt.Errorf("core: %s violates %s agreement in run %d (cfg %s, %s): %d decides 0, %d decides 1",
				t.pair.Name, kind, run.Index, run.Config(), run.Pattern(), who[0], who[1])
		}
		return err == nil
	})
	return err
}

// CheckWeakAgreement verifies condition 2′ of Section 2.1 on every
// run: nonfaulty processors do not decide on different values.
func (t *DecisionTable) CheckWeakAgreement() error { return t.agreement("weak", false) }

// CheckUniformAgreement verifies the stronger, uniform variant of
// agreement discussed in Section 7 (cf. Neiger/Bazzi): no two
// processors — faulty or not — decide on different values. The
// paper's protocols are not designed for it; the E16 experiment shows
// where it breaks.
func (t *DecisionTable) CheckUniformAgreement() error { return t.agreement("uniform", true) }

// CheckWeakValidity verifies condition 3′: when all initial values
// are identical, nonfaulty processors that decide, decide that value
// — with two values, a decided value is some processor's initial one.
// Only the all-0 and all-1 configurations lack a value, so only their
// runs are visited.
func (t *DecisionTable) CheckWeakValidity() error {
	sys, tbl := t.sys, t.sys.Table()
	all := uint64(types.FullSet(sys.Params.N))
	for r, cfg := range tbl.ConfigOf {
		if cfg != 0 && cfg != all {
			continue
		}
		run := sys.Run(r)
		nf := run.Nonfaulty()
		for p, id := range run.Row(sys.Horizon) {
			proc := types.ProcID(p)
			if got, at, ok := decoded(t.of(id)); ok && nf.Contains(proc) && !run.HasValue(got) {
				return fmt.Errorf("core: %s violates weak validity in run %d (cfg %s, %s): %d decides %s at %d",
					t.pair.Name, run.Index, run.Config(), run.Pattern(), proc, got, at)
			}
		}
	}
	return nil
}

// CheckDecision verifies the decision condition of EBA within the
// enumerated horizon: every nonfaulty processor decides by time H.
func (t *DecisionTable) CheckDecision() (err error) {
	all := true
	t.forViews(func(_ views.ID, _ int32, d int16) bool {
		all = d != undecided
		return all
	})
	if all {
		return nil
	}
	t.forNonfaulty(func(run system.Run, proc types.ProcID, d int16) bool {
		if d == undecided {
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
// the same system, so a processor holds the same final view in both,
// and the comparison is one per view.
func (a *DecisionTable) Dominates(b *DecisionTable) bool {
	if a.sys != b.sys {
		panic(fmt.Sprintf("core: decision tables of %s and %s are over different systems", a.pair.Name, b.pair.Name))
	}
	dominates := true
	b.forViews(func(id views.ID, _ int32, bd int16) bool {
		if _, bAt, bOK := decoded(bd); bOK {
			_, aAt, aOK := decoded(a.of(id))
			dominates = aOK && aAt <= bAt
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
	a.forViews(func(id views.ID, _ int32, ad int16) bool {
		if _, aAt, aOK := decoded(ad); aOK {
			_, bAt, bOK := decoded(b.of(id))
			sooner = !bOK || aAt < bAt
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
	t.forViews(func(_ views.ID, _ int32, d int16) bool {
		if _, at, ok := decoded(d); !ok {
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
	t.forViews(func(_ views.ID, weight int32, d int16) bool {
		_, at, _ := decoded(d) // an undecided view decodes at time -1
		h[at] += int(weight)
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
	t.forNonfaulty(func(run system.Run, _ types.ProcID, d int16) bool {
		_, at, ok := decoded(d)
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
