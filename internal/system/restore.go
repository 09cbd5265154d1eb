package system

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Reassemble rebuilds a System from previously enumerated parts — an
// interner plus a run table whose views reference it — without
// re-running the enumeration. It is the restore path of the snapshot
// store: FromPatterns interns every view, while Reassemble only
// validates the table and re-derives the byView index, two dense walks
// over already-interned IDs. The table is adopted, not copied.
//
// The table is validated against the parameters (array sizes, pattern
// mode, horizon and fault bound, configuration bits, view ownership
// and times, and that each run's time-0 views carry the initial values
// its configuration bits say) so a decoded snapshot can't produce a
// structurally inconsistent system, or one whose run-constant facts
// (∃0, init_p=v) contradict what its processors see.
func Reassemble(params types.Params, mode failures.Mode, horizon int, in *views.Interner, tbl RunTable) (*System, error) {
	if err := validateBuild(params, mode, horizon, tbl.Patterns); err != nil {
		return nil, err
	}
	if in == nil || in.N() != params.N {
		return nil, fmt.Errorf("system: interner missing or sized for wrong n")
	}
	runs, n := len(tbl.PatternOf), params.N
	if runs == 0 {
		return nil, fmt.Errorf("system: no runs")
	}
	if len(tbl.ConfigOf) != runs || len(tbl.Views) != runs*(horizon+1)*n {
		return nil, fmt.Errorf("system: run table has %d patterns, %d configurations and %d views for %d runs of %d",
			runs, len(tbl.ConfigOf), len(tbl.Views), runs, (horizon+1)*n)
	}
	rest := tbl.Views
	for r := 0; r < runs; r++ {
		if pi := tbl.PatternOf[r]; pi < 0 || int(pi) >= len(tbl.Patterns) {
			return nil, fmt.Errorf("system: run %d references pattern %d of %d", r, pi, len(tbl.Patterns))
		}
		cfg := tbl.ConfigOf[r]
		if cfg&^uint64(types.FullSet(n)) != 0 {
			return nil, fmt.Errorf("system: run %d config bits %#x out of range for n=%d", r, cfg, n)
		}
		for m := 0; m <= horizon; m++ {
			for p := 0; p < n; p++ {
				id := rest[0]
				rest = rest[1:]
				if id < 0 || int(id) >= in.Size() {
					return nil, fmt.Errorf("system: run %d time %d: view %d not in interner", r, m, id)
				}
				if in.Proc(id) != types.ProcID(p) || in.Time(id) != types.Round(m) {
					return nil, fmt.Errorf("system: run %d time %d: view %d is (p%d,t%d), want (p%d,t%d)",
						r, m, id, in.Proc(id), in.Time(id), p, m)
				}
				if want := types.Value(cfg >> uint(p) & 1); m == 0 && in.Initial(id) != want {
					return nil, fmt.Errorf("system: run %d: processor %d starts with %s in its view, %s in the run's configuration",
						r, p, in.Initial(id), want)
				}
			}
		}
	}
	sys := &System{
		Params:   params,
		Mode:     mode,
		Horizon:  horizon,
		Interner: in,
		tbl:      tbl,
	}
	sys.buildByView()
	return sys, nil
}
