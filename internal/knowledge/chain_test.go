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
// points that hold it where the owner is in S — not out, in the views
// part, and nonfaulty in the point's run if the membership asks. It
// returns each element's root and the occupied table it fills.
func unionClassesRef(e *Evaluator, fr *frontier, elems int, pos func(idx int32) int32) ([]int32, *Bits) {
	sys := e.sys
	stride := int32(sys.Horizon + 1)
	off, idx := viewIndex(sys)
	of := e.partition().of
	uf := newUnionFind(elems)
	occupied := NewBits(sys.NumPoints())
	for id := views.ID(0); int(id) < sys.Interner.Size(); id++ {
		owner := sys.Interner.Proc(id)
		mb := &fr.members[owner]
		if mb.out || mb.views != nil && (of[id] < 0 || mb.views[of[id]] == 0) {
			continue
		}
		first := int32(-1)
		for _, q := range idx[off[id]:off[id+1]] {
			if mb.nf && !sys.Run(int(q/stride)).Nonfaulty().Contains(owner) {
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
	return rootsOf(uf), occupied
}

// rootsOf returns every element's root.
func rootsOf(uf *unionFind) []int32 {
	roots := make([]int32, len(uf.parent))
	for i := range roots {
		roots[i] = uf.find(int32(i))
	}
	return roots
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
	if err := samePartition(runs, ref); err != nil {
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
	if err := samePartition(points, ref); err != nil {
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
// and under 𝒩; random views parts; a rigid set, alone and over a views
// part.
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
	}
}

// TestChainComponentsMatchViewWalk pins the C and C□ components read
// off the view IDs to the view-index walk they replaced, set by set, in
// all four failure modes at n=3 t=1, and at a horizon whose times need
// two occupancy words per view (crash n=2 t=1 h=65). The mutants
// planted under the mutant_* build tags must fail it.
func TestChainComponentsMatchViewWalk(t *testing.T) {
	for _, k := range []struct {
		name string
		mode failures.Mode
		n, h int
	}{
		{"crash", failures.Crash, 3, 3},
		{"omission", failures.Omission, 3, 3},
		{"receiving-omission", failures.ReceivingOmission, 3, 2},
		{"general-omission", failures.GeneralOmission, 3, 2},
		{"crash-n2-h65", failures.Crash, 2, 65},
	} {
		t.Run(k.name, func(t *testing.T) {
			sys := newModeSys(t, k.mode, k.n, 1, k.h)
			for name, s := range chainTestSets(k.n) {
				if err := componentMismatch(sys, s); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}
