package protocols

import (
	"math/rand"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// exists0StarByTime is ∃0* as Section 6.2 states it: some nonfaulty
// processor accepted 0 at some time m' ≤ m, asked of every earlier row.
func exists0StarByTime(sys *system.System, pt system.Point) bool {
	run := sys.RunOf(pt)
	nf := run.Nonfaulty()
	for m := 0; m <= int(pt.Time); m++ {
		for p, id := range run.Row(m) {
			if nf.Contains(types.ProcID(p)) && sys.Interner.AcceptsZeroAt(id) {
				return true
			}
		}
	}
	return false
}

// exists0StarPointwise is ∃0* asked point by point of the point's own
// row: some nonfaulty processor's view there believes ∃0*. It was the
// production atom before ∃0* was asked per view.
func exists0StarPointwise() knowledge.Formula {
	return knowledge.Atom("∃0*", func(sys *system.System, pt system.Point) bool {
		run := sys.RunOf(pt)
		nf := run.Nonfaulty()
		for p, id := range run.Row(int(pt.Time)) {
			if nf.Contains(types.ProcID(p)) && sys.Interner.BelievesExistsZeroStar(id) {
				return true
			}
		}
		return false
	})
}

// TestExists0StarReadsOwnRow: Exists0Star, asked once per view of each
// processor, is the pointwise atom over the point's own row and the
// per-time definition at every point of the n=3 t=1 h=3 systems of all
// four modes and at 20k sampled points of omission n=4 t=2 h=2.
func TestExists0StarReadsOwnRow(t *testing.T) {
	check := func(t *testing.T, sys *system.System, points func(yield func(idx int))) {
		e := knowledge.NewEvaluator(sys)
		perView, pointwise := e.Eval(Exists0Star(sys.Params.N)), e.Eval(exists0StarPointwise())
		holds := 0
		points(func(idx int) {
			want := exists0StarByTime(sys, sys.PointAt(idx))
			if perView.Get(idx) != want || pointwise.Get(idx) != want {
				t.Fatalf("point %v: Exists0Star %v, pointwise %v, per-time definition %v",
					sys.PointAt(idx), perView.Get(idx), pointwise.Get(idx), want)
			}
			if want {
				holds++
			}
		})
		if holds == 0 {
			t.Fatal("∃0* holds at no point checked: the comparison pins nothing")
		}
	}
	for _, mode := range []failures.Mode{failures.Crash, failures.Omission, failures.ReceivingOmission, failures.GeneralOmission} {
		t.Run(mode.String(), func(t *testing.T) {
			sys := enum(t, 3, 1, mode, 3)
			check(t, sys, func(yield func(int)) {
				for idx := 0; idx < sys.NumPoints(); idx++ {
					yield(idx)
				}
			})
		})
	}
	t.Run("omission-n4-t2-h2", func(t *testing.T) {
		if testing.Short() {
			t.Skip("1.2 M-point system")
		}
		sys := enum(t, 4, 2, failures.Omission, 2)
		rng := rand.New(rand.NewSource(62))
		check(t, sys, func(yield func(int)) {
			for k := 0; k < 20000; k++ {
				yield(rng.Intn(sys.NumPoints()))
			}
		})
	})
}
