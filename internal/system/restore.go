package system

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Reassemble rebuilds a System from previously enumerated parts — an
// interner plus a run table whose views reference it — without
// re-running the enumeration: FromPatterns interns every view, while
// Reassemble only checks each run with a Restorer, one dense walk over
// already-interned IDs, and derives nothing (the nonfaulty-holder
// count is built by the first NonfaultyHolders call, as it is after a
// build). The table is adopted, not copied.
func Reassemble(params types.Params, mode failures.Mode, horizon int, in *views.Interner, tbl RunTable) (*System, error) {
	rs, err := NewRestorer(params, mode, horizon, in, tbl.Patterns)
	if err != nil {
		return nil, err
	}
	if err := rs.checkShape(tbl); err != nil {
		return nil, err
	}
	stride := rs.Stride()
	for r, pi := range tbl.PatternOf {
		if err := rs.CheckRun(r, int64(pi), tbl.ConfigOf[r], tbl.Views[r*stride:(r+1)*stride]); err != nil {
			return nil, err
		}
	}
	return rs.Adopt(tbl)
}

// A Restorer holds the rules a run table restored from outside must
// keep — the ones FromPatterns keeps by construction — so that the
// table can be checked one run at a time, by several goroutines at
// once, while it is being decoded, and then adopted without a second
// pass. The rules are those of the parameters (pattern mode, horizon
// and fault bound), and per run: its pattern index, its configuration
// bits, each slot's view owner and time, and that the time-0 views
// carry the initial values the configuration bits say. A decoded
// snapshot therefore can't produce a structurally inconsistent system,
// or one whose run-constant facts (∃0, init_p=v) contradict what its
// processors see.
type Restorer struct {
	params   types.Params
	mode     failures.Mode
	horizon  int
	in       *views.Interner
	patterns []*failures.Pattern
	stamps   []views.Stamp
	configs  uint64 // the configuration bits of n processors
	// wantAt[m*n+p] is the stamp processor p's slot at time m must
	// hold, the initial value (time 0 only) aside.
	wantAt []views.Stamp
}

// NewRestorer checks the parameters, the patterns and the interner,
// and returns the per-run rules over them.
func NewRestorer(params types.Params, mode failures.Mode, horizon int, in *views.Interner, patterns []*failures.Pattern) (*Restorer, error) {
	if err := validateBuild(params, mode, horizon, patterns); err != nil {
		return nil, err
	}
	if in == nil || in.N() != params.N {
		return nil, fmt.Errorf("system: interner missing or sized for wrong n")
	}
	n := params.N
	wantAt := make([]views.Stamp, (horizon+1)*n)
	for k := range wantAt {
		wantAt[k] = views.StampOf(types.ProcID(k%n), types.Round(k/n), types.Zero)
	}
	return &Restorer{params: params, mode: mode, horizon: horizon, in: in, patterns: patterns,
		stamps: in.Stamps(), configs: uint64(types.FullSet(n)), wantAt: wantAt}, nil
}

// Stride is the number of views in one run: (horizon+1)·n.
func (rs *Restorer) Stride() int { return len(rs.wantAt) }

// CheckRun checks run r, which uses pattern index pattern and
// configuration bits cfg and holds the views ids (Stride of them,
// time-major). It only reads the Restorer, so any number of goroutines
// may check runs at once.
func (rs *Restorer) CheckRun(r int, pattern int64, cfg uint64, ids []views.ID) error {
	if pattern < 0 || pattern >= int64(len(rs.patterns)) {
		return fmt.Errorf("system: run %d references pattern %d of %d", r, pattern, len(rs.patterns))
	}
	n := rs.params.N
	if cfg&^rs.configs != 0 {
		return fmt.Errorf("system: run %d config bits %#x out of range for n=%d", r, cfg, n)
	}
	stamps := rs.stamps
	// Time 0: each processor's leaf, with the initial value the
	// configuration bits give it.
	for p, id := range ids[:n] {
		if uint(id) >= uint(len(stamps)) || stamps[id] != rs.wantAt[p].WithInitial(types.Value(cfg>>uint(p)&1)) {
			return slotError(rs.in, r, 0, p, id, cfg)
		}
	}
	// Later times: owner and time, whatever the initial value.
	later := ids[n:]
	wantAt := rs.wantAt[n:][:len(later)]
	for k, id := range later {
		if uint(id) >= uint(len(stamps)) || stamps[id].WithInitial(types.Zero) != wantAt[k] {
			return slotError(rs.in, r, k/n+1, k%n, id, cfg)
		}
	}
	return nil
}

// Adopt returns the system over tbl, whose patterns must be the
// Restorer's and each of whose runs must have passed CheckRun. It
// checks only the table's shape.
func (rs *Restorer) Adopt(tbl RunTable) (*System, error) {
	if err := rs.checkShape(tbl); err != nil {
		return nil, err
	}
	tbl.Patterns = rs.patterns
	return &System{
		Params:   rs.params,
		Mode:     rs.mode,
		Horizon:  rs.horizon,
		Interner: rs.in,
		tbl:      tbl,
	}, nil
}

// checkShape checks that the table has runs, and one pattern index,
// one configuration and Stride views per run.
func (rs *Restorer) checkShape(tbl RunTable) error {
	runs := len(tbl.PatternOf)
	if runs == 0 {
		return fmt.Errorf("system: no runs")
	}
	if stride := rs.Stride(); len(tbl.ConfigOf) != runs || len(tbl.Views) != runs*stride {
		return fmt.Errorf("system: run table has %d patterns, %d configurations and %d views for %d runs of %d",
			runs, len(tbl.ConfigOf), len(tbl.Views), runs, stride)
	}
	return nil
}

// slotError names the rule that the view in processor p's slot at time
// m of run r breaks, looking the view up field by field.
func slotError(in *views.Interner, r, m, p int, id views.ID, cfg uint64) error {
	if id < 0 || int(id) >= in.Size() {
		return fmt.Errorf("system: run %d time %d: view %d not in interner", r, m, id)
	}
	if in.Proc(id) != types.ProcID(p) || in.Time(id) != types.Round(m) {
		return fmt.Errorf("system: run %d time %d: view %d is (p%d,t%d), want (p%d,t%d)",
			r, m, id, in.Proc(id), in.Time(id), p, m)
	}
	return fmt.Errorf("system: run %d: processor %d starts with %s in its view, %s in the run's configuration",
		r, p, in.Initial(id), types.Value(cfg>>uint(p)&1))
}
