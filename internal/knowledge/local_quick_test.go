package knowledge

import (
	"math/rand"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// hashPred is a random local fact: a seeded hash of the view ID puts
// the view in or out, eighths of the views in. It knows nothing about
// what a view means, so no structure of real decision rules can hide a
// bug in how the evaluator carries per-view answers to points.
func hashPred(seed uint64, eighths uint64) ViewPred {
	return func(_ *views.Interner, id views.ID) bool {
		x := (uint64(id) + 1) * 0x9E3779B97F4A7C15
		x ^= seed
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		return x%8 < eighths
	}
}

// localLawFormulas builds, from one seed, formulas that push random
// view predicates through every node the evaluator treats at view
// granularity — ViewAtom, FromViews, Intersect(𝒩, ·) — under B and C□
// (and E and C, which share their kernels), next to the run-constant
// atoms. K_i and B^S_i are also taken over conjunctions that mix a
// conjunct local to i, one local to another processor j, run facts and
// C□ — the split of belief over ∧ — and one constant node sits under
// both i's and j's operators, so a class-table memo that forgot whose
// classes it holds would hand one processor the other's table.
func localLawFormulas(rng *rand.Rand, n int) []Formula {
	proc := func() types.ProcID { return types.ProcID(rng.Intn(n)) }
	seed := rng.Uint64()
	atom := ViewAtom("a", proc(), hashPred(seed, 1+uint64(rng.Intn(7))))
	set := FromViews("R", hashPred(seed+1, 1+uint64(rng.Intn(7))))
	nfSet := Intersect(Nonfaulty(), set)
	run := []Formula{Exists0(), Exists1(), IsNonfaulty(proc()), InitialIs(proc(), types.Value(rng.Intn(2)))}[rng.Intn(4)]
	i := proc()
	j := (i + 1 + types.ProcID(rng.Intn(n-1))) % types.ProcID(n)
	atomI := ViewAtom("c", i, hashPred(seed+2, 1+uint64(rng.Intn(7))))
	atomJ := ViewAtom("d", j, hashPred(seed+3, 1+uint64(rng.Intn(7))))
	top := Not(False())
	cbox := CBox(nfSet, Or(atom, run))
	return []Formula{
		atom,
		B(proc(), set, atom),
		B(proc(), nfSet, Not(atom)),
		B(proc(), Nonfaulty(), And(run, Not(atom))),
		E(nfSet, Or(atom, run)),
		C(nfSet, Or(atom, run)),
		CBox(set, Or(atom, run)),
		CBox(nfSet, Implies(run, atom)),
		Implies(IsNonfaulty(proc()), Iff(atom, B(proc(), Nonfaulty(), And(run, CBox(nfSet, run))))),
		K(i, And(atomI, atomJ, run, cbox)),
		B(i, nfSet, And(top, Not(atomI), atomJ, run)),
		B(i, Nonfaulty(), And(Or(atomI, run), And(top, cbox), Not(atomJ))),
		B(j, set, And(top, atomJ, Not(cbox))),
		Iff(atomI, K(i, And(B(j, Nonfaulty(), Or(atomJ, run)), top, atomI))),
	}
}

// checkClassTables holds the class table of every ViewAtom, K_i and
// B^S_i formula to RefHolds at every point of a few sampled classes:
// the class value must be the formula's value wherever the class's view
// is held.
func checkClassTables(t *testing.T, e *Evaluator, rng *rand.Rand, f Formula) {
	t.Helper()
	i, ok := owner(f)
	if !ok {
		return
	}
	sys := e.System()
	ids := e.partition().views[i]
	vals := e.local(i, f)
	for k := 0; k < 4; k++ {
		c := rng.Intn(len(ids))
		forPointsWithView(sys, ids[c], func(q system.Point) bool {
			if want := RefHolds(sys, f, q); (vals[c] == 1) != want {
				t.Fatalf("%s: processor %d's class of view %d holds %d, reference %v at %v",
					f, i, ids[c], vals[c], want, q)
			}
			return true
		})
	}
}

// TestLocalNodesMatchReference is the differential law for view-level
// evaluation: the production evaluator, which asks a view predicate
// once per view and a run fact once per run, against RefHolds, which
// asks at every point it visits — in all four failure modes, and on an
// omission system whose adversary may only corrupt processor 0, where
// processors hold different numbers of views and a class table handed
// to the wrong processor has the wrong length.
func TestLocalNodesMatchReference(t *testing.T) {
	oneFaulty := func(t *testing.T) *system.System {
		pats, err := failures.EnumOmission(3, 1, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		var only0 []*failures.Pattern
		for _, p := range pats {
			if p.Faulty().Minus(types.SetOf(0)).Empty() {
				only0 = append(only0, p)
			}
		}
		sys, err := system.FromPatterns(types.Params{N: 3, T: 1}, failures.Omission, 2, only0)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cases := []struct {
		name string
		mode failures.Mode
		n    int
		sys  func(t *testing.T) *system.System
	}{
		{"crash", failures.Crash, 3, nil},
		{"omission", failures.Omission, 3, nil},
		{"receiving-omission", failures.ReceivingOmission, 3, nil},
		{"general-omission", failures.GeneralOmission, 2, nil},
		{"omission-only-0-faulty", failures.Omission, 3, oneFaulty},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sys *system.System
			if tc.sys != nil {
				sys = tc.sys(t)
			} else {
				sys = newModeSys(t, tc.mode, tc.n, 1, 2)
			}
			rng := rand.New(rand.NewSource(int64(ci+1) + 20260928))
			// Every point of a small system in the first round, a sample
			// otherwise: the reference's C□ is a search per point.
			np := sys.NumPoints()
			for round := 0; round < 8; round++ {
				e := NewEvaluator(sys)
				for _, f := range localLawFormulas(rng, tc.n) {
					checkClassTables(t, e, rng, f)
					tbl := e.Eval(f)
					exhaustive := round == 0 && np <= 512
					for s := 0; s < np && (exhaustive || s < 12); s++ {
						idx := s
						if !exhaustive {
							idx = rng.Intn(np)
						}
						if got, want := tbl.Get(idx), RefHolds(sys, f, sys.PointAt(idx)); got != want {
							t.Fatalf("round %d, %s at %v: evaluator %v, reference %v", round, f, sys.PointAt(idx), got, want)
						}
					}
				}
			}
		})
	}
}

// TestLocalNodesParallelBitIdentical: the same random formulas give
// bit-identical tables sequentially and sharded, in all four modes, on
// systems large enough for the sharded paths to engage.
func TestLocalNodesParallelBitIdentical(t *testing.T) {
	cases := []struct {
		mode failures.Mode
		h    int
	}{
		{failures.Crash, 4},
		{failures.Omission, 3},
		{failures.ReceivingOmission, 3},
		{failures.GeneralOmission, 2},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys := newModeSys(t, tc.mode, 3, 1, tc.h)
			if tc.mode == failures.Crash {
				// n=3 crash systems stay under parMinWork at any horizon.
				sys = newModeSys(t, tc.mode, 4, 1, 3)
			}
			if sys.NumPoints() < parMinWork {
				t.Fatalf("%d points, below parMinWork %d: the sharded paths would not engage", sys.NumPoints(), parMinWork)
			}
			n := sys.Params.N
			for round := 0; round < 3; round++ {
				seq := NewEvaluator(sys)
				seq.SetParallelism(1)
				par := NewEvaluator(sys)
				par.SetParallelism(5)
				// One stream per evaluator from the same seed: each gets
				// its own formula nodes and sets, the same in content.
				a := localLawFormulas(rand.New(rand.NewSource(int64(round))), n)
				b := localLawFormulas(rand.New(rand.NewSource(int64(round))), n)
				for i := range a {
					if !seq.Eval(a[i]).Equal(par.Eval(b[i])) {
						t.Fatalf("round %d, %s: sharded table differs from the sequential one", round, a[i])
					}
				}
			}
		})
	}
}

// TestMembershipMatchesMembers: what the evaluator derives from a
// structured set's factored membership — per run, per view class, by
// intersection — is the set's pointwise Members: the dense masks, the
// occupied table the component walk fills, and the per-class "i ∈ S
// somewhere in the class" table.
func TestMembershipMatchesMembers(t *testing.T) {
	sys := frontierTestSystem(t)
	vs := FromViews("R", hashPred(7, 3))
	sets := []NonrigidSet{
		Nonfaulty(),
		vs,
		Intersect(Nonfaulty(), vs),
		Intersect(Intersect(vs, Const("01", types.SetOf(0, 1))), Nonfaulty()),
		Const("12", types.SetOf(1, 2)),
	}
	e := NewEvaluator(sys)
	n := sys.Params.N
	p := e.partition()
	for _, s := range sets {
		fr := e.frontierFor(s)
		e.runComponents(fr)
		somewhere := make([][]bool, n)
		for i := range somewhere {
			somewhere[i] = make([]bool, len(p.views[i]))
		}
		for idx := 0; idx < sys.NumPoints(); idx++ {
			want := s.Members(sys, sys.PointAt(idx))
			for i := 0; i < n; i++ {
				in := want.Contains(types.ProcID(i))
				if got := e.mask(fr, types.ProcID(i)).Get(idx); got != in {
					t.Fatalf("set %s: mask[%d] bit %d = %v, Members says %v", s.Name(), i, idx, got, want)
				}
				if in {
					somewhere[i][p.of[sys.ViewAt(sys.PointAt(idx), types.ProcID(i))]] = true
				}
			}
			if fr.occupied.Get(idx) == want.Empty() {
				t.Fatalf("set %s: occupied bit %d = %v, Members says %v", s.Name(), idx, fr.occupied.Get(idx), want)
			}
		}
		for i := 0; i < n; i++ {
			for c, v := range e.someIn(fr, types.ProcID(i)) {
				if (v == 1) != somewhere[i][c] {
					t.Fatalf("set %s: processor %d class %d: someIn %d, Members says %v", s.Name(), i, c, v, somewhere[i][c])
				}
			}
		}
	}
}

// TestIsNonfaultyOutOfRange: a processor the system does not have is
// never nonfaulty (the parser accepts nf7 without knowing n).
func TestIsNonfaultyOutOfRange(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	for _, p := range []types.ProcID{-1, 3, 7} {
		if NewEvaluator(sys).Eval(IsNonfaulty(p)).Any() {
			t.Errorf("processor %d is nonfaulty somewhere in a 3-processor system", p)
		}
	}
}

// TestSetRangeMatchesReference: the word-level range write against
// bit-by-bit Set, across word boundaries, on tables that already hold
// bits it must not disturb.
func TestSetRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(260)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		got, want := NewBits(n), NewBits(n)
		for i := 0; i < n; i++ {
			v := rng.Intn(4) == 0
			got.Set(i, v)
			want.Set(i, v)
		}
		got.SetRange(lo, hi)
		for i := lo; i < hi; i++ {
			want.Set(i, true)
		}
		if !got.Equal(want) || !tailClean(got) {
			t.Fatalf("n=%d SetRange(%d, %d) differs from the bit-by-bit write", n, lo, hi)
		}
	}
}

// TestFailingPointIsFirstFalse: FailingPoint returns the first point,
// in index order, at which the formula fails.
func TestFailingPointIsFirstFalse(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	e := NewEvaluator(sys)
	for _, f := range []Formula{Exists0(), IsNonfaulty(1), K(0, Exists1()), True()} {
		tbl := e.Eval(f)
		want := -1
		for i := 0; i < tbl.Len() && want < 0; i++ {
			if !tbl.Get(i) {
				want = i
			}
		}
		pt, bad := e.FailingPoint(f)
		if bad != (want >= 0) || (bad && sys.PointIndex(pt) != want) {
			t.Errorf("%s: FailingPoint = (%v, %v), first false bit is %d", f, pt, bad, want)
		}
	}
}
