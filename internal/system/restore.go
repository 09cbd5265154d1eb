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
// validates the table, one dense walk over already-interned IDs, and
// derives nothing (the nonfaulty-holder count is built by the first
// NonfaultyHolders call, as it is after a build). The table is
// adopted, not copied.
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
	stride := (horizon + 1) * n
	if len(tbl.ConfigOf) != runs || len(tbl.Views) != runs*stride {
		return nil, fmt.Errorf("system: run table has %d patterns, %d configurations and %d views for %d runs of %d",
			runs, len(tbl.ConfigOf), len(tbl.Views), runs, stride)
	}
	// What a slot of a run must hold is one stamp: wantAt[m*n+p] for
	// processor p at time m, the initial value (time 0 only) aside.
	stamps := in.Stamps()
	wantAt := make([]views.Stamp, stride)
	for k := range wantAt {
		wantAt[k] = views.StampOf(types.ProcID(k%n), types.Round(k/n), types.Zero)
	}
	for r := 0; r < runs; r++ {
		if pi := tbl.PatternOf[r]; pi < 0 || int(pi) >= len(tbl.Patterns) {
			return nil, fmt.Errorf("system: run %d references pattern %d of %d", r, pi, len(tbl.Patterns))
		}
		cfg := tbl.ConfigOf[r]
		if cfg&^uint64(types.FullSet(n)) != 0 {
			return nil, fmt.Errorf("system: run %d config bits %#x out of range for n=%d", r, cfg, n)
		}
		run := tbl.Views[r*stride : (r+1)*stride]
		for k, id := range run {
			if uint(id) >= uint(len(stamps)) {
				return nil, slotError(in, r, k/n, k%n, id, cfg)
			}
			got, want := stamps[id], wantAt[k]
			if k < n {
				want = want.WithInitial(types.Value(cfg >> uint(k) & 1))
			} else {
				got = got.WithInitial(types.Zero)
			}
			if got != want {
				return nil, slotError(in, r, k/n, k%n, id, cfg)
			}
		}
	}
	return &System{
		Params:   params,
		Mode:     mode,
		Horizon:  horizon,
		Interner: in,
		tbl:      tbl,
	}, nil
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
