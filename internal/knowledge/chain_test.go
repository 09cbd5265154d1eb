package knowledge

import (
	"fmt"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// viewIndex is the point-indexed view index the components were once
// built from: idx[off[v]:off[v+1]] lists, in point order, the dense
// point indices at which view v's owner holds it (a counting sort over
// the run table).
func viewIndex(sys *system.System) (off []int, idx []int32) {
	n, vs := sys.Params.N, sys.Table().Views
	off = make([]int, sys.Interner.Size()+1)
	for _, v := range vs {
		off[v+1]++
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	idx = make([]int32, len(vs))
	next := append([]int(nil), off...)
	for k, v := range vs {
		idx[next[v]] = int32(k / n)
		next[v]++
	}
	return off, idx
}

// unionClassesRef is the view-index walk the C and C□ components were
// built by before they were read off the view DAG: for every view its
// owner's membership admits, join (the images under pos of) all the
// points that hold it where the owner is in S. It returns the
// union-find and the occupied table it fills.
func unionClassesRef(e *Evaluator, fr *frontier, elems int, pos func(idx int32) int32) (*unionFind, *Bits) {
	sys := e.sys
	off, idx := viewIndex(sys)
	of := e.partition().of
	uf := newUnionFind(elems)
	occupied := NewBits(sys.NumPoints())
	for id := views.ID(0); int(id) < sys.Interner.Size(); id++ {
		mb := &fr.members[sys.Interner.Proc(id)]
		if mb.out || mb.views != nil && (of[id] < 0 || mb.views[of[id]] == 0) {
			continue
		}
		first := int32(-1)
		for _, q := range idx[off[id]:off[id+1]] {
			if mb.points != nil && !mb.points.Get(int(q)) {
				continue
			}
			occupied.Set(int(q), true)
			if first < 0 {
				first = pos(q)
			} else {
				uf.union(first, pos(q))
			}
		}
	}
	return uf, occupied
}

// samePartition reports whether two root tables partition their
// elements alike, naming the first element where they part ways.
func samePartition(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d elements, reference %d", len(got), len(want))
	}
	fwd, rev := make(map[int32]int32), make(map[int32]int32)
	for k := range got {
		g, w := got[k], want[k]
		fw, seenG := fwd[g]
		rg, seenW := rev[w]
		if seenG && fw != w || seenW && rg != g {
			return fmt.Errorf("element %d: component %d, reference component %d", k, g, w)
		}
		fwd[g], rev[w] = w, g
	}
	return nil
}

// runMismatch compares the frontier's C□ components (built if need be)
// and its occupied table with the view-index walk's.
func runMismatch(e *Evaluator, fr *frontier) error {
	stride := int32(e.sys.Horizon + 1)
	runs := e.runComponents(fr)
	ref, occupied := unionClassesRef(e, fr, e.sys.NumRuns(), func(idx int32) int32 { return idx / stride })
	if err := samePartition(runs, ref.flatten()); err != nil {
		return fmt.Errorf("C□ runs: %v", err)
	}
	if !fr.occupied.Equal(occupied) {
		return fmt.Errorf("C□ occupied table differs")
	}
	return nil
}

// pointMismatch is runMismatch for C's point components.
func pointMismatch(e *Evaluator, fr *frontier) error {
	points := e.pointComponents(fr)
	ref, occupied := unionClassesRef(e, fr, e.sys.NumPoints(), func(idx int32) int32 { return idx })
	if err := samePartition(points, ref.flatten()); err != nil {
		return fmt.Errorf("C points: %v", err)
	}
	if !fr.occupied.Equal(occupied) {
		return fmt.Errorf("C occupied table differs")
	}
	return nil
}

// componentMismatch checks the set's C□ and C components, each on a
// fresh evaluator so that each build fills the occupied table.
func componentMismatch(sys *system.System, s NonrigidSet) error {
	e := NewEvaluator(sys)
	if err := runMismatch(e, e.frontierFor(s)); err != nil {
		return err
	}
	e = NewEvaluator(sys)
	return pointMismatch(e, e.frontierFor(s))
}

// chainTestSets are sets of every shape the component builds
// distinguish: 𝒩; 𝒩∧𝒪 for an upward-closed decision set; a views part
// that is not upward-closed ("heard from everyone last round"), alone
// and under 𝒩; random views parts; a rigid set; an opaque set, and an
// opaque set under 𝒩, whose points parts are foreign.
func chainTestSets(n int) map[string]NonrigidSet {
	decided1 := FromViews("O", func(in *views.Interner, id views.ID) bool {
		return in.Time(id) >= 2 && !in.Knows(id, types.Zero)
	})
	heardAll := FromViews("heardAll", func(in *views.Interner, id views.ID) bool {
		return in.Time(id) >= 1 && in.HeardFrom(id) == types.FullSet(n).Remove(in.Proc(id))
	})
	random := FromViews("R", hashPred(11, 4))
	return map[string]NonrigidSet{
		"N":              Nonfaulty(),
		"N∧O":            Intersect(Nonfaulty(), decided1),
		"heardAll":       heardAll,
		"N∧heardAll":     Intersect(Nonfaulty(), heardAll),
		"R":              random,
		"N∧R":            Intersect(Nonfaulty(), random),
		"rigid":          Const("01", types.SetOf(0, 1)),
		"rigid∧heardAll": Intersect(Const("02", types.SetOf(0, 2)), heardAll),
		"opaque":         opaqueSet{Intersect(Nonfaulty(), heardAll)},
		"opaque∧N":       Intersect(opaqueSet{heardAll}, Nonfaulty()),
	}
}

// TestChainComponentsMatchViewWalk pins the components read off the
// view DAG (C□) and the run-major pass (C, and C□ over foreign points
// parts) to the view-index walk they replaced, set by set, in all four
// failure modes at n=3 t=1. The mutants planted under the
// mutant_chain_* build tags must fail it.
func TestChainComponentsMatchViewWalk(t *testing.T) {
	for _, k := range []struct {
		mode failures.Mode
		h    int
	}{
		{failures.Crash, 3},
		{failures.Omission, 3},
		{failures.ReceivingOmission, 2},
		{failures.GeneralOmission, 2},
	} {
		t.Run(k.mode.String(), func(t *testing.T) {
			sys := newModeSys(t, k.mode, 3, 1, k.h)
			for name, s := range chainTestSets(3) {
				if err := componentMismatch(sys, s); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

// TestChainPathTaken pins which sets take which C□ build: the view DAG
// for memberships that views and run-constant facts decide, the
// run-major pass for foreign points parts and for horizons past a
// uint64's bits.
func TestChainPathTaken(t *testing.T) {
	sys := newModeSys(t, failures.Omission, 3, 1, 2)
	e := NewEvaluator(sys)
	for name, s := range chainTestSets(3) {
		want := name != "opaque" && name != "opaque∧N"
		if got := e.chainable(e.frontierFor(s)); got != want {
			t.Errorf("%s: chainable %v, want %v", name, got, want)
		}
	}
	deep := &Evaluator{sys: &system.System{Horizon: 64}, frontiers: e.frontiers}
	if deep.chainable(e.frontierFor(Nonfaulty())) {
		t.Error("horizon 64 takes the chain path")
	}
}
