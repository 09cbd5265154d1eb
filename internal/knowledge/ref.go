package knowledge

import (
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// RefHolds evaluates a formula at a point directly from the textbook
// definitions: no memoization, no truth tables, no union-find — K and
// B scan indistinguishability classes, the common-knowledge operators
// run breadth-first searches, and the temporal operators loop over
// times. A view's class is found by scanning the run table. It is
// exponential and exists purely as an independent implementation to
// differentially test the Evaluator against (property tests draw
// random formulas and compare).
//
// E◇_S is its pointwise definition. C◇_S, a greatest fixed point with
// no pointwise formulation, is the downward iteration over explicit
// point sets built on that E◇ (refCDiamond), run afresh on every call:
// the oracle of the Evaluator's worklist, sharing none of its code.
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
	case *emptyF:
		return g.s.Members(sys, pt).Empty()
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
		return forPointsWithView(sys, sys.ViewAt(pt, g.i), func(q system.Point) bool {
			return RefHolds(sys, g.f, q)
		})
	case *bF:
		return forPointsWithView(sys, sys.ViewAt(pt, g.i), func(q system.Point) bool {
			return !g.s.Members(sys, q).Contains(g.i) || RefHolds(sys, g.f, q)
		})
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
	case *ediamondF:
		return refEDiamond(sys, g.s, pt, func(q system.Point) bool { return RefHolds(sys, g.f, q) })
	case *cdiamondF:
		return refCDiamond(sys, g.s, g.f)[pt]
	default:
		panic("knowledge: RefHolds does not support " + f.String())
	}
}

// The sets' pointwise definitions: what Members means, read by the
// reference alone. The evaluator reads each set's factored membership.

func (*nonfaultySet) Members(sys *system.System, pt system.Point) types.ProcSet {
	return sys.RunOf(pt).Nonfaulty()
}

func (c *constSet) Members(*system.System, system.Point) types.ProcSet { return c.set }

func (v *viewSet) Members(sys *system.System, pt system.Point) types.ProcSet {
	var s types.ProcSet
	for p := 0; p < sys.Params.N; p++ {
		if v.pred(sys.Interner, sys.ViewAt(pt, types.ProcID(p))) {
			s = s.Add(types.ProcID(p))
		}
	}
	return s
}

func (s *intersectSet) Members(sys *system.System, pt system.Point) types.ProcSet {
	return s.a.Members(sys, pt).Intersect(s.b.Members(sys, pt))
}

// forPointsWithView calls fn, in run order, at each point where the
// view's owner holds it — its indistinguishability class — until fn
// returns false, and reports whether it never did. It finds them by
// scanning the run table at the view's time: a view fixes its owner and
// time, so no other slot can hold it. That costs O(runs) per call,
// which the small systems the reference runs on afford.
func forPointsWithView(sys *system.System, id views.ID, fn func(q system.Point) bool) bool {
	in := sys.Interner
	p, m := in.Proc(id), in.Time(id)
	if int(m) > sys.Horizon {
		return true
	}
	vs, n := sys.Table().Views, sys.Params.N
	stride := (sys.Horizon + 1) * n
	for r, k := 0, int(m)*n+int(p); k < len(vs); r, k = r+1, k+stride {
		if vs[k] == id && !fn(system.Point{Run: r, Time: m}) {
			return false
		}
	}
	return true
}

// refC is the reachability characterization of C_S, computed by an
// explicit point-level BFS (the Evaluator uses union-find instead).
func refC(sys *system.System, s NonrigidSet, f Formula, start system.Point) bool {
	if s.Members(sys, start).Empty() {
		return true
	}
	visited := map[system.Point]bool{start: true}
	// expanded marks the views whose class has been searched: a second
	// search from the same view would find only visited points.
	expanded := map[views.ID]bool{}
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
			v := sys.ViewAt(pt, i)
			if expanded[v] {
				return true
			}
			expanded[v] = true
			forPointsWithView(sys, v, func(q system.Point) bool {
				if !visited[q] && s.Members(sys, q).Contains(i) {
					visited[q] = true
					next = append(next, q)
				}
				return true
			})
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
	expanded := map[views.ID]bool{} // as in refC
	queue := []int{start.Run}
	for len(queue) > 0 {
		run := queue[0]
		queue = queue[1:]
		for _, pt := range occupied(run) {
			if !RefHolds(sys, f, pt) {
				return false
			}
			s.Members(sys, pt).ForEach(func(i types.ProcID) bool {
				v := sys.ViewAt(pt, i)
				if expanded[v] {
					return true
				}
				expanded[v] = true
				forPointsWithView(sys, v, func(q system.Point) bool {
					if !visited[q.Run] && s.Members(sys, q).Contains(i) {
						visited[q.Run] = true
						queue = append(queue, q.Run)
					}
					return true
				})
				return true
			})
		}
	}
	return true
}

// refEDiamond is E◇_S's pointwise definition over the predicate holds:
// for every i ∈ S(pt), some time m' ≥ pt's has B^S_i holds at (run, m'),
// that is, holds at every point of i's class there at which i ∈ S.
func refEDiamond(sys *system.System, s NonrigidSet, pt system.Point, holds func(system.Point) bool) bool {
	ok := true
	s.Members(sys, pt).ForEach(func(i types.ProcID) bool {
		ok = false
		for m := pt.Time; !ok && int(m) <= sys.Horizon; m++ {
			ok = forPointsWithView(sys, sys.ViewAt(system.Point{Run: pt.Run, Time: m}, i), func(q system.Point) bool {
				return !s.Members(sys, q).Contains(i) || holds(q)
			})
		}
		return ok
	})
	return ok
}

// refCDiamond is C◇_S f's point set, the greatest fixed point of
// X = E◇_S(f ∧ X), by the downward iteration from the set of every
// point: each round keeps the points at which E◇_S(f ∧ X) holds, until a
// round keeps them all.
func refCDiamond(sys *system.System, s NonrigidSet, f Formula) map[system.Point]bool {
	var all []system.Point
	for r := 0; r < sys.NumRuns(); r++ {
		for m := types.Round(0); int(m) <= sys.Horizon; m++ {
			all = append(all, system.Point{Run: r, Time: m})
		}
	}
	fx, x := map[system.Point]bool{}, map[system.Point]bool{}
	for _, pt := range all {
		fx[pt], x[pt] = RefHolds(sys, f, pt), true
	}
	for {
		next, same := map[system.Point]bool{}, true
		for _, pt := range all {
			next[pt] = refEDiamond(sys, s, pt, func(q system.Point) bool { return fx[q] && x[q] })
			same = same && next[pt] == x[pt]
		}
		if same {
			return x
		}
		x = next
	}
}
