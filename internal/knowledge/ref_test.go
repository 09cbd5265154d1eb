package knowledge

import (
	"math/rand"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// randomFormula draws a random formula of bounded depth over the
// standard atoms, the boolean connectives, and every operator RefHolds
// supports.
func randomFormula(rng *rand.Rand, n, depth int) Formula {
	if depth == 0 {
		switch rng.Intn(5) {
		case 0:
			return Exists0()
		case 1:
			return Exists1()
		case 2:
			return InitialIs(types.ProcID(rng.Intn(n)), types.Value(rng.Intn(2)))
		case 3:
			return IsNonfaulty(types.ProcID(rng.Intn(n)))
		default:
			return ViewAtom("heard≥1", types.ProcID(rng.Intn(n)),
				func(in *views.Interner, id views.ID) bool { return in.HeardFrom(id).Len() >= 1 })
		}
	}
	sub := func() Formula { return randomFormula(rng, n, depth-1) }
	sets := []NonrigidSet{
		Nonfaulty(),
		Intersect(Nonfaulty(), FromViews("Kn0", func(in *views.Interner, id views.ID) bool {
			return in.Knows(id, types.Zero)
		})),
	}
	s := sets[rng.Intn(len(sets))]
	switch rng.Intn(12) {
	case 0:
		return Not(sub())
	case 1:
		return And(sub(), sub())
	case 2:
		return Or(sub(), sub())
	case 3:
		return K(types.ProcID(rng.Intn(n)), sub())
	case 4:
		return B(types.ProcID(rng.Intn(n)), s, sub())
	case 5:
		return E(s, sub())
	case 6:
		return C(s, sub())
	case 7:
		return Box(sub())
	case 8:
		return Diamond(sub())
	case 9:
		return Henceforth(sub())
	case 10:
		return Future(sub())
	default:
		return CBox(s, sub())
	}
}

// TestEvaluatorMatchesReference differentially tests the table-based
// Evaluator against the direct-definition RefHolds on random formulas
// and points.
func TestEvaluatorMatchesReference(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	e := NewEvaluator(sys)
	rng := rand.New(rand.NewSource(20260705))
	const formulas = 60
	for fi := 0; fi < formulas; fi++ {
		f := randomFormula(rng, 3, 1+rng.Intn(2))
		tbl := e.Eval(f)
		// Spot-check a sample of points (RefHolds on C/C□ formulas is
		// expensive).
		for s := 0; s < 40; s++ {
			pt := sys.PointAt(rng.Intn(sys.NumPoints()))
			want := RefHolds(sys, f, pt)
			got := tbl.Get(sys.PointIndex(pt))
			if got != want {
				t.Fatalf("formula %s at %v: evaluator %v, reference %v", f, pt, got, want)
			}
		}
	}
}

// TestReferenceOmissionMode repeats the differential test on an
// omission-mode system with shallower formulas.
func TestReferenceOmissionMode(t *testing.T) {
	sys := omissionSys(t, 3, 1, 2)
	e := NewEvaluator(sys)
	rng := rand.New(rand.NewSource(42))
	for fi := 0; fi < 25; fi++ {
		f := randomFormula(rng, 3, 1)
		tbl := e.Eval(f)
		for s := 0; s < 25; s++ {
			pt := sys.PointAt(rng.Intn(sys.NumPoints()))
			if got, want := tbl.Get(sys.PointIndex(pt)), RefHolds(sys, f, pt); got != want {
				t.Fatalf("formula %s at %v: evaluator %v, reference %v", f, pt, got, want)
			}
		}
	}
}

// TestEventualOperatorsMatchReference holds E◇_S and C◇_S to the
// reference at every point of n=3 t=1 systems in all four modes (h=2;
// h=1 for general omission, whose h=2 system has 18,456 points), over
// 𝒩, an intersection with a set of local states, a set of local states
// alone, and the empty set: the C◇ worklist against the reference's
// downward iteration over explicit point sets. RefHolds runs that
// iteration afresh on every call, so C◇ is compared with its point set
// (refCDiamond, which RefHolds reads) at every point and with RefHolds
// itself at a few.
func TestEventualOperatorsMatchReference(t *testing.T) {
	o := FromViews("𝒪", func(in *views.Interner, id views.ID) bool { return in.Knows(id, types.One) })
	heard := FromViews("heard≥1", func(in *views.Interner, id views.ID) bool { return in.HeardFrom(id).Len() >= 1 })
	sets := []NonrigidSet{Nonfaulty(), Intersect(Nonfaulty(), o), heard, Const("∅", types.EmptySet)}
	for _, c := range []struct {
		mode failures.Mode
		h    int
	}{{failures.Crash, 2}, {failures.Omission, 2}, {failures.ReceivingOmission, 2}, {failures.GeneralOmission, 1}} {
		t.Run(c.mode.String(), func(t *testing.T) {
			sys := newModeSys(t, c.mode, 3, 1, c.h)
			e := NewEvaluator(sys)
			for _, s := range sets {
				for _, phi := range []Formula{Exists0(), Exists1()} {
					ed, cd := e.Eval(EDiamond(s, phi)), e.Eval(CDiamond(s, phi))
					ref := refCDiamond(sys, s, phi)
					for idx := 0; idx < sys.NumPoints(); idx++ {
						pt := sys.PointAt(idx)
						if got, want := ed.Get(idx), RefHolds(sys, EDiamond(s, phi), pt); got != want {
							t.Fatalf("%s at %v: evaluator %v, reference %v", EDiamond(s, phi), pt, got, want)
						}
						if got, want := cd.Get(idx), ref[pt]; got != want {
							t.Fatalf("%s at %v: evaluator %v, reference %v", CDiamond(s, phi), pt, got, want)
						}
					}
					for idx := 0; idx < sys.NumPoints(); idx += sys.NumPoints()/3 + 1 {
						if got, want := cd.Get(idx), RefHolds(sys, CDiamond(s, phi), sys.PointAt(idx)); got != want {
							t.Fatalf("RefHolds(%s) at %v: %v, evaluator %v", CDiamond(s, phi), sys.PointAt(idx), want, got)
						}
					}
				}
			}
		})
	}
}
