package knowledge

import (
	"fmt"
	"math/bits"

	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// partition is the view-class partition of the point space, for every
// processor at once: processor i's class at a point is the view it
// holds there. views[i] lists i's classes (views) in first-encounter
// order, and of[id] is view id's class number among its owner's classes
// (-1 for a view no point holds). Whatever depends only on a
// processor's view (K_i f, B^S_i f, a ViewAtom, the views part of a
// set's membership) is one value per class, kept in a class table (one
// uint8 per class, 0 or 1). A point reaches its class through the view
// the run table holds for it, of[Views[idx*n+i]], so the partition
// costs two entries per view; only expandClasses, which streams every
// point, caches i's classes point by point in column[i].
type partition struct {
	of     []int32
	views  [][]views.ID
	column [][]int32
}

// localKey keys the class-table memo. The processor is part of the key:
// a constant, or a Boolean combination of constants, is local to every
// processor, and its table has one entry per class of whichever
// processor asked.
type localKey struct {
	i types.ProcID
	f Formula
}

// localTo reports whether f's truth at a point is a function of
// processor i's view there: a ViewAtom of i, K_i or B^S_i of anything,
// a constant, and ¬/∧/∨ over such formulas.
func localTo(f Formula, i types.ProcID) bool {
	if p, ok := owner(f); ok {
		return p == i
	}
	switch g := f.(type) {
	case *constF:
		return true
	case *notF:
		return localTo(g.f, i)
	case *andF:
		return allLocalTo(g.fs, i)
	case *orF:
		return allLocalTo(g.fs, i)
	}
	return false
}

func allLocalTo(fs []Formula, i types.ProcID) bool {
	for _, sub := range fs {
		if !localTo(sub, i) {
			return false
		}
	}
	return true
}

// owner returns the processor whose view decides f when f is a
// ViewAtom, K_i or B^S_i node — the nodes that are class tables first.
func owner(f Formula) (types.ProcID, bool) {
	switch g := f.(type) {
	case *viewAtomF:
		return g.p, true
	case *kF:
		return g.i, true
	case *bF:
		return g.i, true
	}
	return 0, false
}

// local returns f's class table for processor i (f must be local to
// i), memoized by (processor, formula).
func (e *Evaluator) local(i types.ProcID, f Formula) []uint8 {
	key := localKey{i, f}
	if vals, ok := e.locals[key]; ok {
		return vals
	}
	nc := len(e.partition().views[i])
	var vals []uint8
	switch g := f.(type) {
	case *constF:
		vals = classFill(nc, g.v)
	case *viewAtomF:
		vals = e.classVals(i, g.pred)
	case *notF:
		vals = classFill(nc, true)
		for c, v := range e.local(i, g.f) {
			vals[c] = 1 - v
		}
	case *andF:
		vals = classFill(nc, true)
		for _, sub := range g.fs {
			classAnd(vals, e.local(i, sub))
		}
	case *orF:
		vals = classFill(nc, false)
		for _, sub := range g.fs {
			for c, v := range e.local(i, sub) {
				vals[c] |= v
			}
		}
	case *kF:
		vals = e.believes(i, nil, g.f)
	case *bF:
		vals = e.believes(i, g.s, g.f)
	default:
		panic(fmt.Sprintf("knowledge: %s is not local to processor %d", f, i))
	}
	e.locals[key] = vals
	return vals
}

// believes returns the class table of B^S_i f (K_i f when s is nil).
// Belief distributes over ∧, so a conjunction is split and each
// conjunct believed on its own. A conjunct L local to i needs no point
// table at all: K_i L = L, and B^S_i L = L ∨ "i ∉ S anywhere in the
// class". Only a conjunct that is not local is evaluated to points, and
// its falsifying points (for B, those where i ∈ S) refute their classes.
func (e *Evaluator) believes(i types.ProcID, s NonrigidSet, f Formula) []uint8 {
	if g, ok := f.(*andF); ok {
		vals := classFill(len(e.partition().views[i]), true)
		for _, sub := range g.fs {
			classAnd(vals, e.believes(i, s, sub))
		}
		return vals
	}
	if localTo(f, i) {
		vals := append([]uint8(nil), e.local(i, f)...)
		if s != nil {
			for c, in := range e.someIn(e.frontierFor(s), i) {
				vals[c] |= 1 - in
			}
		}
		return vals
	}
	var mask *Bits
	if s != nil {
		mask = e.mask(e.frontierFor(s), i)
	}
	return e.refute(i, e.Eval(f), mask)
}

// refute returns the class table of K_i over the truth table ft,
// restricted to the points of mask when it is not nil (B^S_i with
// mask = i's membership in S): every point where ft fails, and mask
// holds, refutes its class. The work is one word operation per 64
// points plus one step per falsifying point, through i's class column
// if expandClasses has built it and through the run table otherwise.
func (e *Evaluator) refute(i types.ProcID, ft, mask *Bits) []uint8 {
	p, vs, n := e.partition(), e.sys.Table().Views, e.sys.Params.N
	col := p.column[i]
	vals := classFill(len(p.views[i]), true)
	tail := ^uint64(0)
	if r := uint(ft.n & 63); r != 0 {
		tail = 1<<r - 1
	}
	last := len(ft.w) - 1
	for wi, w := range ft.w {
		w = ^w
		if mask != nil {
			w &= mask.w[wi]
		}
		if wi == last {
			w &= tail
		}
		for ; w != 0; w &= w - 1 {
			idx := wi<<6 + bits.TrailingZeros64(w)
			if col != nil {
				vals[col[idx]] = 0
			} else {
				vals[p.of[vs[idx*n+int(i)]]] = 0
			}
		}
	}
	return vals
}

// ViewTable writes into out[id], for every view id that processor i
// holds somewhere in the system, the value there of f, which must be
// local to i (¬K_i¬g, "g holds somewhere in the class", makes any g
// so). Views i never holds are left alone. out is indexed by views.ID
// and must cover the system's interner.
func (e *Evaluator) ViewTable(i types.ProcID, f Formula, out []bool) {
	if !localTo(f, i) {
		panic(fmt.Sprintf("knowledge: ViewTable: %s is not local to processor %d", f, i))
	}
	for c, v := range e.local(i, f) {
		out[e.partition().views[i][c]] = v != 0
	}
}

// partition returns (building on first use) the view-class partition:
// one pass over the run table, numbering each processor's views in
// first-encounter order. Classes depend only on the system, never on a
// nonrigid set, so the partition is shared by every class table.
func (e *Evaluator) partition() *partition {
	if e.part != nil {
		return e.part
	}
	n, size := e.sys.Params.N, e.sys.Interner.Size()
	p := &partition{of: make([]int32, size), views: make([][]views.ID, n), column: make([][]int32, n)}
	for id := range p.of {
		p.of[id] = -1
	}
	vs := e.sys.Table().Views
	for row := 0; row < len(vs); row += n {
		for i, id := range vs[row : row+n] {
			if p.of[id] < 0 {
				p.of[id] = int32(len(p.views[i]))
				p.views[i] = append(p.views[i], id)
			}
		}
	}
	e.part = p
	return p
}

// classVals asks a view predicate once per class of processor i.
func (e *Evaluator) classVals(i types.ProcID, pred ViewPred) []uint8 {
	ids := e.partition().views[i]
	vals := make([]uint8, len(ids))
	for c, id := range ids {
		if pred(e.sys.Interner, id) {
			vals[c] = 1
		}
	}
	return vals
}

// expandClasses turns processor i's class table into a truth table over
// points, through i's class column (built on first use), building each
// 64-point word in a register without a branch per point.
func (e *Evaluator) expandClasses(i types.ProcID, vals []uint8) *Bits {
	p := e.partition()
	if p.column[i] == nil {
		vs, n := e.sys.Table().Views, e.sys.Params.N
		col := make([]int32, e.sys.NumPoints())
		for idx := range col {
			col[idx] = p.of[vs[idx*n+int(i)]]
		}
		p.column[i] = col
	}
	classOf := p.column[i]
	np := e.sys.NumPoints()
	out := NewBits(np)
	e.parallelBits(np, func(lo, hi int) {
		for base := lo; base < hi; base += 64 {
			end := base + 64
			if end > hi {
				end = hi
			}
			var word uint64
			for k, c := range classOf[base:end] {
				word |= uint64(vals[c]) << uint(k)
			}
			out.w[base>>6] = word
		}
	})
	return out
}

func classFill(n int, v bool) []uint8 {
	vals := make([]uint8, n)
	if v {
		for c := range vals {
			vals[c] = 1
		}
	}
	return vals
}

func classAnd(dst, src []uint8) {
	for c, v := range src {
		dst[c] &= v
	}
}
