package knowledge

import (
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// RefHolds evaluates a formula at a point directly from the textbook
// definitions: no memoization, no truth tables, no union-find — K and
// B scan indistinguishability classes, the common-knowledge operators
// run breadth-first searches, and the temporal operators loop over
// times. It is exponential and exists purely as an independent
// implementation to differentially test the Evaluator against
// (property tests draw random formulas and compare).
//
// CDiamond and EDiamond are not supported (their greatest-fixed-point
// semantics has no pointwise formulation; the Evaluator's iteration is
// itself the definitional computation).
func RefHolds(sys *system.System, f Formula, pt system.Point) bool {
	switch g := f.(type) {
	case *constF:
		return g.v
	case *atomF:
		return g.pred(sys, pt)
	case *runAtomF:
		return g.pred(sys.RunOf(pt))
	case *viewAtomF:
		return g.pred(sys.Interner, sys.ViewAt(pt, g.p))
	case *nonfaultyF:
		return sys.RunOf(pt).Nonfaulty().Contains(g.p)
	case *notF:
		return !RefHolds(sys, g.f, pt)
	case *andF:
		for _, sub := range g.fs {
			if !RefHolds(sys, sub, pt) {
				return false
			}
		}
		return true
	case *orF:
		for _, sub := range g.fs {
			if RefHolds(sys, sub, pt) {
				return true
			}
		}
		return false
	case *kF:
		for _, qi := range sys.PointIdxWithView(sys.ViewAt(pt, g.i)) {
			if !RefHolds(sys, g.f, sys.PointAt(int(qi))) {
				return false
			}
		}
		return true
	case *bF:
		for _, qi := range sys.PointIdxWithView(sys.ViewAt(pt, g.i)) {
			q := sys.PointAt(int(qi))
			if !g.s.Members(sys, q).Contains(g.i) {
				continue
			}
			if !RefHolds(sys, g.f, q) {
				return false
			}
		}
		return true
	case *eF:
		ok := true
		g.s.Members(sys, pt).ForEach(func(i types.ProcID) bool {
			if !RefHolds(sys, &bF{i: i, s: g.s, f: g.f}, pt) {
				ok = false
				return false
			}
			return true
		})
		return ok
	case *cF:
		return refC(sys, g.s, g.f, pt)
	case *boxF:
		for m := types.Round(0); int(m) <= sys.Horizon; m++ {
			if !RefHolds(sys, g.f, system.Point{Run: pt.Run, Time: m}) {
				return false
			}
		}
		return true
	case *diamondF:
		for m := types.Round(0); int(m) <= sys.Horizon; m++ {
			if RefHolds(sys, g.f, system.Point{Run: pt.Run, Time: m}) {
				return true
			}
		}
		return false
	case *henceforthF:
		for m := pt.Time; int(m) <= sys.Horizon; m++ {
			if !RefHolds(sys, g.f, system.Point{Run: pt.Run, Time: m}) {
				return false
			}
		}
		return true
	case *futureF:
		for m := pt.Time; int(m) <= sys.Horizon; m++ {
			if RefHolds(sys, g.f, system.Point{Run: pt.Run, Time: m}) {
				return true
			}
		}
		return false
	case *cboxF:
		return refCBox(sys, g.s, g.f, pt)
	default:
		panic("knowledge: RefHolds does not support " + f.String())
	}
}

// refC is the reachability characterization of C_S, computed by an
// explicit point-level BFS (the Evaluator uses union-find instead).
func refC(sys *system.System, s NonrigidSet, f Formula, start system.Point) bool {
	if s.Members(sys, start).Empty() {
		return true
	}
	visited := map[system.Point]bool{start: true}
	queue := []system.Point{start}
	// The start point itself is reachable via a self-loop through any
	// of its S members, so f must hold there too.
	for len(queue) > 0 {
		pt := queue[0]
		queue = queue[1:]
		if !RefHolds(sys, f, pt) {
			return false
		}
		var next []system.Point
		s.Members(sys, pt).ForEach(func(i types.ProcID) bool {
			for _, qi := range sys.PointIdxWithView(sys.ViewAt(pt, i)) {
				q := sys.PointAt(int(qi))
				if !visited[q] && s.Members(sys, q).Contains(i) {
					visited[q] = true
					next = append(next, q)
				}
			}
			return true
		})
		queue = append(queue, next...)
	}
	return true
}

// refCBox is the S-□-reachability characterization of C□_S
// (Corollary 3.3), computed by an explicit BFS over runs.
func refCBox(sys *system.System, s NonrigidSet, f Formula, start system.Point) bool {
	// Landing points of run r: all its S-occupied points.
	occupied := func(run int) []system.Point {
		var out []system.Point
		for m := types.Round(0); int(m) <= sys.Horizon; m++ {
			q := system.Point{Run: run, Time: m}
			if !s.Members(sys, q).Empty() {
				out = append(out, q)
			}
		}
		return out
	}
	startPts := occupied(start.Run)
	if len(startPts) == 0 {
		return true
	}
	visited := map[int]bool{start.Run: true}
	queue := []int{start.Run}
	for len(queue) > 0 {
		run := queue[0]
		queue = queue[1:]
		for _, pt := range occupied(run) {
			if !RefHolds(sys, f, pt) {
				return false
			}
			s.Members(sys, pt).ForEach(func(i types.ProcID) bool {
				for _, qi := range sys.PointIdxWithView(sys.ViewAt(pt, i)) {
					q := sys.PointAt(int(qi))
					if !visited[q.Run] && s.Members(sys, q).Contains(i) {
						visited[q.Run] = true
						queue = append(queue, q.Run)
					}
				}
				return true
			})
		}
	}
	return true
}
