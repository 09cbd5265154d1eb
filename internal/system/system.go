// Package system enumerates full-information systems: the set ℛ of
// runs of the full-information protocol for given parameters, failure
// mode, and horizon, with every processor's view at every point
// hash-consed into one Interner.
//
// Because the states of processors following a full-information
// protocol are completely independent of their decision functions
// (Proposition 2.2 of the paper), one enumerated System serves every
// knowledge-based protocol: decision rules are just predicates over
// interned views, and all knowledge operators, dominance comparisons,
// and optimality checks are computations over this single structure.
//
// A System is exact for the adversary class it enumerates. Exhaustive
// classes (EnumCrash / EnumOmission) yield the paper's semantics
// outright; restricted classes (samples, witness families) yield the
// knowledge of a smaller system, which over-approximates knowledge —
// negative continual-common-knowledge facts established there remain
// valid in every containing system (see DESIGN.md).
package system

import (
	"context"
	"fmt"
	"sync"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// mRunsEnumerated counts runs built, accumulated across all systems
// the process builds (the knowledge audit in ebarun builds several).
var mRunsEnumerated = telemetry.Default().Counter("eba_system_runs_enumerated_total")

// Point identifies a point (r, m): run index and time.
type Point struct {
	Run  int
	Time types.Round
}

// RunTable is the one representation of a system's runs: flat,
// run-major arrays in place of one heap object per run. Every builder
// produces it — FromPatterns, the merge stage of FromPatternsParallel,
// and the snapshot decoder through a Restorer — and every reader
// consumes it, mostly through Run.
//
// A RunTable is written once, by the builder that makes it, and is
// read-only afterwards: the parallel evaluator and the daemon's
// concurrent queries read it from several goroutines with no lock.
type RunTable struct {
	// Patterns are the failure patterns the runs refer to, in the order
	// the builder was given them (a list may repeat a pattern).
	Patterns []*failures.Pattern
	// PatternOf[r] indexes Patterns and ConfigOf[r] is the initial
	// configuration of run r as types.ConfigFromBits bits.
	PatternOf []int32
	ConfigOf  []uint64
	// Views[(r*(H+1)+m)*n+p] is processor p's view at time m of run r.
	Views []views.ID
}

// Run is one run of a system — a configuration, a failure pattern, and
// every processor's view at every time 0..H — as a two-word handle
// computed from the run's index into the system's RunTable.
type Run struct {
	sys   *System
	Index int
}

// Pattern returns the run's failure pattern.
func (r Run) Pattern() *failures.Pattern {
	return r.sys.tbl.Patterns[r.sys.tbl.PatternOf[r.Index]]
}

// Nonfaulty returns the processors that are nonfaulty throughout the
// run (the nonrigid set 𝒩 is constant within a run, Section 2.1).
func (r Run) Nonfaulty() types.ProcSet { return r.Pattern().Nonfaulty() }

// ConfigBits returns the run's initial configuration as
// types.ConfigFromBits bits.
func (r Run) ConfigBits() uint64 { return r.sys.tbl.ConfigOf[r.Index] }

// Config materializes the run's initial configuration; loops over
// every run should ask Initial or HasValue instead, which read the
// bits in place.
func (r Run) Config() types.Config {
	return types.ConfigFromBits(r.sys.Params.N, r.ConfigBits())
}

// Initial returns processor p's initial value.
func (r Run) Initial(p types.ProcID) types.Value {
	return types.Value(r.ConfigBits() >> uint(p) & 1)
}

// HasValue reports whether some processor starts with v: the basic
// facts ∃0 and ∃1 of Section 3.1.
func (r Run) HasValue(v types.Value) bool {
	if v == types.One {
		return r.ConfigBits() != 0
	}
	return v == types.Zero && r.ConfigBits() != uint64(types.FullSet(r.sys.Params.N))
}

// View returns processor p's view at time m.
func (r Run) View(m int, p types.ProcID) views.ID {
	return r.sys.tbl.Views[(r.Index*(r.sys.Horizon+1)+m)*r.sys.Params.N+int(p)]
}

// Row returns every processor's view at time m, indexed by processor.
// The slice aliases the run table; do not modify.
func (r Run) Row(m int) []views.ID {
	n := r.sys.Params.N
	lo := (r.Index*(r.sys.Horizon+1) + m) * n
	return r.sys.tbl.Views[lo : lo+n : lo+n]
}

// System is an enumerated full-information system: its run table and
// the interner whose views the table references. The table is the only
// structure indexed by point. Nothing indexes points by view: the
// evaluator walks the interner's view DAG (each view's Prev chain is
// its owner's whole history) and reads the table run by run, and the
// points holding a given view are the table's slots for its owner at
// its time that hold it.
type System struct {
	Params  types.Params
	Mode    failures.Mode
	Horizon int

	Interner *views.Interner
	tbl      RunTable

	// holders[id] counts the runs in which view id's owner holds it at
	// the horizon while nonfaulty. Built by the first NonfaultyHolders
	// call: no builder and no restore derives it.
	holdersOnce sync.Once
	holders     []int32
}

// MaxRuns bounds the runs of an enumerated system in every mode.
const MaxRuns = 2_000_000

// Enumerate builds the exhaustive system for the mode: all initial
// configurations crossed with all canonical failure patterns up to t
// faulty processors (failures.Enum). For the omission modes the pattern
// count grows as (2^(n-1))^h per faulty processor (squared per round
// for the general mode); limit > 0 bounds it in every mode, limit == 0
// means no limit, and limit < 0 is an error. A system of more than
// MaxRuns runs is refused too. Both bounds are checked before any
// pattern is built.
func Enumerate(params types.Params, mode failures.Mode, horizon int, limit int) (*System, error) {
	pats, err := enumPatterns(params, mode, horizon, limit)
	if err != nil {
		return nil, err
	}
	return FromPatterns(params, mode, horizon, pats)
}

// enumPatterns is failures.Enum refusing, before it builds a pattern,
// a key whose patterns times its 2^n initial configurations exceed
// MaxRuns.
func enumPatterns(params types.Params, mode failures.Mode, horizon, limit int) ([]*failures.Pattern, error) {
	count, _, err := failures.Count(mode, params.N, params.T, horizon, limit)
	if err != nil {
		return nil, err
	}
	// count·2^n > MaxRuns exactly when count > ⌊MaxRuns/2^n⌋, and the
	// shift saturates to 0 for n ≥ 63, so nothing overflows.
	if count > MaxRuns>>params.N {
		return nil, fmt.Errorf("system: %s n=%d t=%d h=%d has %d patterns × 2^%d configurations, more than %d runs",
			mode, params.N, params.T, horizon, count, params.N, MaxRuns)
	}
	return failures.Enum(mode, params.N, params.T, horizon, limit)
}

// FromPatterns builds the system over an explicit adversary class:
// all initial configurations crossed with the given patterns.
func FromPatterns(params types.Params, mode failures.Mode, horizon int, pats []*failures.Pattern) (*System, error) {
	if err := validateBuild(params, mode, horizon, pats); err != nil {
		return nil, err
	}
	if telemetry.Enabled() {
		_, sp := telemetry.StartSpan(context.Background(), "system.enumerate",
			telemetry.L("n", fmt.Sprint(params.N)),
			telemetry.L("t", fmt.Sprint(params.T)),
			telemetry.L("mode", mode.String()),
			telemetry.L("horizon", fmt.Sprint(horizon)),
			telemetry.L("patterns", fmt.Sprint(len(pats))))
		defer sp.End()
	}
	sys := &System{
		Params:   params,
		Mode:     mode,
		Horizon:  horizon,
		Interner: views.NewInterner(params.N),
		tbl:      NewRunTable(params.N, horizon, pats),
	}
	buildRuns(sys.Interner, horizon, &sys.tbl)
	mRunsEnumerated.Add(uint64(sys.NumRuns()))
	return sys, nil
}

// NewRunTable allocates the table for all initial configurations
// crossed with the given patterns, in the canonical order
// (pattern-major, configuration-minor), with every array but Views
// filled in; the snapshot decoder holds each run's head to it. The
// pattern list is copied: the table must not change under its readers
// when the caller reuses the slice.
func NewRunTable(n, horizon int, pats []*failures.Pattern) RunTable {
	nconfigs := 1 << uint(n)
	runs := len(pats) * nconfigs
	tbl := RunTable{
		Patterns:  append([]*failures.Pattern(nil), pats...),
		PatternOf: make([]int32, runs),
		ConfigOf:  make([]uint64, runs),
		Views:     make([]views.ID, runs*(horizon+1)*n),
	}
	for r := 0; r < runs; r++ {
		tbl.PatternOf[r] = int32(r / nconfigs)
		tbl.ConfigOf[r] = uint64(r % nconfigs)
	}
	return tbl
}

// validateBuild checks the build parameters and every pattern against
// them; shared by the builders and NewRestorer.
func validateBuild(params types.Params, mode failures.Mode, horizon int, pats []*failures.Pattern) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if horizon < 1 {
		return fmt.Errorf("system: horizon %d < 1", horizon)
	}
	if len(pats) == 0 {
		return fmt.Errorf("system: no failure patterns")
	}
	for i, pat := range pats {
		if pat == nil {
			return fmt.Errorf("system: pattern %d is missing", i)
		}
		if pat.Mode() != mode {
			return fmt.Errorf("system: pattern mode %v, want %v", pat.Mode(), mode)
		}
		if pat.N() != params.N {
			return fmt.Errorf("system: pattern for n=%d, want %d", pat.N(), params.N)
		}
		if pat.Horizon() != horizon {
			return fmt.Errorf("system: pattern horizon %d, want %d", pat.Horizon(), horizon)
		}
		if pat.Faulty().Len() > params.T {
			return fmt.Errorf("system: pattern has %d faulty, t=%d", pat.Faulty().Len(), params.T)
		}
	}
	return nil
}

// NumRuns returns the number of runs.
func (s *System) NumRuns() int { return len(s.tbl.PatternOf) }

// NumPoints returns the number of points (runs × times).
func (s *System) NumPoints() int { return s.NumRuns() * (s.Horizon + 1) }

// Run returns the run with the given index in [0, NumRuns).
func (s *System) Run(i int) Run { return Run{sys: s, Index: i} }

// Table returns the system's run table. It is shared, not copied; see
// RunTable for the read-only contract.
func (s *System) Table() RunTable { return s.tbl }

// PointIndex maps a point to its dense index in [0, NumPoints).
func (s *System) PointIndex(pt Point) int {
	return pt.Run*(s.Horizon+1) + int(pt.Time)
}

// PointAt is the inverse of PointIndex.
func (s *System) PointAt(idx int) Point {
	return Point{Run: idx / (s.Horizon + 1), Time: types.Round(idx % (s.Horizon + 1))}
}

// ViewAt returns processor p's view at the point.
func (s *System) ViewAt(pt Point, p types.ProcID) views.ID {
	return s.tbl.Views[s.PointIndex(pt)*s.Params.N+int(p)]
}

// NonfaultyHolders returns, indexed by view ID, the number of runs in
// which the view's owner holds it at the horizon while nonfaulty: the
// weight of a view in any count over (run, nonfaulty processor) pairs
// that depends only on the processor's final view. Views held only
// earlier, only by faulty owners, or interned after the first call
// weigh nothing (or lie past the end). The returned slice is owned by
// the system; do not modify. Safe for concurrent use: the first call
// counts, and calls that arrive meanwhile wait for it.
func (s *System) NonfaultyHolders() []int32 {
	s.holdersOnce.Do(s.countHolders)
	return s.holders
}

// countHolders fills holders in one pass over the horizon rows. Runs
// are pattern-major, so 𝒩 is read once per pattern, not per run.
func (s *System) countHolders() {
	n, h := s.Params.N, s.Horizon
	count := make([]int32, s.Interner.Size())
	pat, nf := int32(-1), types.ProcSet(0)
	for r, pi := range s.tbl.PatternOf {
		if pi != pat {
			pat, nf = pi, s.tbl.Patterns[pi].Nonfaulty()
		}
		lo := (r*(h+1) + h) * n
		for p, id := range s.tbl.Views[lo : lo+n] {
			if nf.Contains(types.ProcID(p)) {
				count[id]++
			}
		}
	}
	s.holders = count
}

// RunOf returns the run containing the point.
func (s *System) RunOf(pt Point) Run { return s.Run(pt.Run) }

// ForEachPoint calls fn for every point, in run-major order.
func (s *System) ForEachPoint(fn func(Point)) {
	for r := 0; r < s.NumRuns(); r++ {
		for m := 0; m <= s.Horizon; m++ {
			fn(Point{Run: r, Time: types.Round(m)})
		}
	}
}

// FindRun returns the run with the given configuration and pattern
// key, if present.
func (s *System) FindRun(cfg types.Config, patternKey string) (Run, bool) {
	if cfg.N() != s.Params.N {
		return Run{}, false
	}
	bits := cfg.Bits()
	for r, pi := range s.tbl.PatternOf {
		if s.tbl.ConfigOf[r] == bits && s.tbl.Patterns[pi].Key() == patternKey {
			return s.Run(r), true
		}
	}
	return Run{}, false
}
