package knowledge

import (
	"context"
	"math/bits"
	"strconv"

	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Telemetry handles for the evaluator hot paths. Counters are cheap
// (one atomic add) and always on; histograms and spans are gated on
// telemetry.Enabled / TraceEnabled at the call sites that need extra
// work to produce a sample.
var (
	mEvalCacheHits   = telemetry.Default().Counter("eba_knowledge_eval_cache_hits_total")
	mEvalCacheMisses = telemetry.Default().Counter("eba_knowledge_eval_cache_misses_total")
	mReachPointSize  = telemetry.Default().Histogram("eba_knowledge_reachable_set_size",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384}, telemetry.L("space", "points"))
	mReachRunSize = telemetry.Default().Histogram("eba_knowledge_reachable_set_size",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384}, telemetry.L("space", "runs"))
	mFixpointCDiamond = telemetry.Default().Counter("eba_knowledge_fixedpoint_iterations_total", telemetry.L("op", "cdiamond"))
	mFixpointCBoxIter = telemetry.Default().Counter("eba_knowledge_fixedpoint_iterations_total", telemetry.L("op", "cbox_iterative"))
	mFixpointCIter    = telemetry.Default().Counter("eba_knowledge_fixedpoint_iterations_total", telemetry.L("op", "c_iter"))

	// mEvalByOp pre-registers one eval counter per operator so the Eval
	// hot path never takes the registry lock.
	mEvalByOp = func() map[string]*telemetry.Counter {
		ops := []string{"const", "atom", "not", "and", "or", "k", "b", "e", "c",
			"box", "diamond", "cbox", "henceforth", "future", "ediamond", "cdiamond", "unknown"}
		m := make(map[string]*telemetry.Counter, len(ops))
		for _, op := range ops {
			m[op] = telemetry.Default().Counter("eba_knowledge_eval_total", telemetry.L("op", op))
		}
		return m
	}()
)

// opName labels a formula node for the per-operator eval counter.
func opName(f Formula) string {
	switch f.(type) {
	case *constF:
		return "const"
	case *atomF, *runAtomF, *viewAtomF, *nonfaultyF:
		return "atom"
	case *notF:
		return "not"
	case *andF:
		return "and"
	case *orF:
		return "or"
	case *kF:
		return "k"
	case *bF:
		return "b"
	case *eF:
		return "e"
	case *cF:
		return "c"
	case *boxF:
		return "box"
	case *diamondF:
		return "diamond"
	case *cboxF:
		return "cbox"
	case *henceforthF:
		return "henceforth"
	case *futureF:
		return "future"
	case *ediamondF:
		return "ediamond"
	case *cdiamondF:
		return "cdiamond"
	default:
		return "unknown"
	}
}

// observeComponentSizes records the size distribution of a flattened
// union-find's components into h: one counting pass over the root
// table (roots are element indices, so the counts are dense), a second
// over the sizes, and one observation per distinct size.
func observeComponentSizes(roots []int32, h *telemetry.Histogram) {
	sizes := make([]int32, len(roots))
	for _, r := range roots {
		sizes[r]++
	}
	components := make([]int32, len(roots)+1) // by size
	for _, sz := range sizes {
		components[sz]++
	}
	for sz, n := range components[1:] {
		h.ObserveN(float64(sz+1), uint64(n))
	}
}

// Evaluator computes truth tables of formulas over one enumerated
// system, memoizing by formula node identity and caching per-set
// reachability structures. It is not safe for concurrent use from
// multiple goroutines, but internally shards its heavy stages (atom
// scans, view-class conjunctions, reachability scans, per-run
// modalities) across a worker pool bounded by SetParallelism; the
// resulting tables are bit-identical at every parallelism level.
type Evaluator struct {
	sys  *system.System
	memo map[Formula]*Bits
	// par bounds the internal worker pool (SetParallelism).
	par int
	// depth tracks Eval recursion so only the outermost call opens a
	// trace span.
	depth int
	// stats accumulates per-evaluator work counters (fixed-point
	// iterations, dispatched shards) for query provenance.
	stats EvalStats
	// traceCtx, when set, carries the request's span context so eval,
	// fixed-point, and shard spans attach to the query's trace; spanCtx
	// is the currently open eval span during a recursion.
	traceCtx context.Context
	spanCtx  context.Context

	// frontiers caches, per nonrigid set, every S-derived reachability
	// structure (membership masks, point and run components). Keyed by NonrigidSet identity — two sets
	// that happen to denote the same membership still get separate
	// frontiers, so a cached frontier can never leak across sets.
	frontiers map[NonrigidSet]*frontier
	// classes caches, per processor, the view-class partition of the
	// point space (independent of any nonrigid set), so evalK never
	// rebuilds the class map across formulas or sets.
	classes []*procClasses
}

// frontier is every S-reachability structure the evaluator derives
// from one nonrigid set, precomputed once and reused across formulas:
// per-processor membership masks (bit idx set in masks[i] iff i ∈ S at
// point idx — the word-level form the batched E_S/E◇_S kernels
// consume), their union (bit idx set iff S is nonempty at idx), and the
// lazily built point/run reachability components with their flattened
// root tables.
type frontier struct {
	masks    []*Bits
	occupied *Bits

	pointComp  *unionFind
	pointRoots []int32
	runComp    *unionFind
	runRoots   []int32
}

// procClasses is the view-class partition of the point space for one
// processor: classOf[idx] numbers the class of the processor's view at
// point idx, and classes lists the class representatives in
// first-encounter order. Whatever depends only on the processor's view
// (K_i f, B^S_i f, a ViewAtom, membership in a FromViews set) is
// decided once per class and expanded to points through classOf.
type procClasses struct {
	classOf []int32
	classes []views.ID
}

// NewEvaluator creates an evaluator for the system, with the internal
// worker pool defaulting to runtime.GOMAXPROCS(0).
func NewEvaluator(sys *system.System) *Evaluator {
	e := &Evaluator{
		sys:       sys,
		memo:      make(map[Formula]*Bits),
		frontiers: make(map[NonrigidSet]*frontier),
		classes:   make([]*procClasses, sys.Params.N),
	}
	e.SetParallelism(0)
	return e
}

// System returns the evaluator's system.
func (e *Evaluator) System() *system.System { return e.sys }

// EvalStats are one evaluator's cumulative work counters — the
// fixed-point iteration counts and shard dispatches that end up in a
// query's provenance block.
type EvalStats struct {
	// CDiamondIterations counts C◇ greatest-fixed-point iterations.
	CDiamondIterations int `json:"cdiamond_iterations,omitempty"`
	// CBoxIterativeIterations counts definitional C□ iterations (the
	// cross-check path; the reachability fast path iterates zero times).
	CBoxIterativeIterations int `json:"cbox_iterative_iterations,omitempty"`
	// CIterations counts E^k levels examined by CIterConvergence.
	CIterations int `json:"c_iterations,omitempty"`
	// Shards counts parallel stage dispatches across all eval stages.
	Shards int `json:"shards,omitempty"`
}

// FixedPointTotal sums every fixed-point iteration counter.
func (s EvalStats) FixedPointTotal() int {
	return s.CDiamondIterations + s.CBoxIterativeIterations + s.CIterations
}

// Stats returns the evaluator's cumulative work counters.
func (e *Evaluator) Stats() EvalStats { return e.stats }

// SetTraceContext attaches the request's span context: subsequent
// Eval calls open their spans (outermost eval, fixed-point loops,
// shard dispatches) as children of ctx's span, so the evaluator's
// work shows up inside the owning query's trace. nil detaches.
func (e *Evaluator) SetTraceContext(ctx context.Context) { e.traceCtx = ctx }

// startSpan opens a child span under the current eval span (or the
// request context when no eval span is open). Returns nil — a no-op
// span — when the evaluator is not attached to a trace.
func (e *Evaluator) startSpan(name string, labels ...telemetry.Label) *telemetry.ActiveSpan {
	if e.traceCtx == nil {
		return nil
	}
	ctx := e.spanCtx
	if ctx == nil {
		ctx = e.traceCtx
	}
	_, sp := telemetry.StartSpan(ctx, name, labels...)
	return sp
}

// Holds reports whether f holds at the point.
func (e *Evaluator) Holds(f Formula, pt system.Point) bool {
	return e.Eval(f).Get(e.sys.PointIndex(pt))
}

// Valid reports whether f holds at every point of the system (the
// paper's ℛ ⊨ φ).
func (e *Evaluator) Valid(f Formula) bool { return e.Eval(f).All() }

// FailingPoint returns a point where f fails, if any.
func (e *Evaluator) FailingPoint(f Formula) (system.Point, bool) {
	if i := e.Eval(f).FirstZero(); i >= 0 {
		return e.sys.PointAt(i), true
	}
	return system.Point{}, false
}

// Eval returns f's truth table (one bit per point index). The table
// is owned by the evaluator's memo; callers must not modify it.
func (e *Evaluator) Eval(f Formula) *Bits {
	if tbl, ok := e.memo[f]; ok {
		mEvalCacheHits.Inc()
		return tbl
	}
	mEvalCacheMisses.Inc()
	op := opName(f)
	mEvalByOp[op].Inc()
	if e.depth == 0 {
		// An unattached evaluator's outermost eval roots a trace of its
		// own; only an attached one opens spans below it.
		parent := e.traceCtx
		if parent == nil {
			parent = context.Background()
		}
		ctx, sp := telemetry.StartSpan(parent, "knowledge.eval", telemetry.L("op", op))
		prev := e.spanCtx
		e.spanCtx = ctx
		defer func() { e.spanCtx = prev; sp.End() }()
	}
	e.depth++
	defer func() { e.depth-- }()
	var tbl *Bits
	switch g := f.(type) {
	case *constF:
		tbl = NewBits(e.sys.NumPoints())
		tbl.Fill(g.v)
	case *atomF:
		tbl = NewBits(e.sys.NumPoints())
		atom := tbl
		e.parallelBits(e.sys.NumPoints(), func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				if g.pred(e.sys, e.sys.PointAt(idx)) {
					atom.Set(idx, true)
				}
			}
		})
	case *runAtomF:
		tbl = NewBits(e.sys.NumPoints())
		e.fillRuns(func(run system.Run, base, end int) {
			if g.pred(run) {
				tbl.SetRange(base, end)
			}
		})
	case *nonfaultyF:
		if masks := e.frontierFor(theNonfaulty).masks; int(g.p) >= 0 && int(g.p) < len(masks) {
			tbl = masks[g.p]
		} else {
			tbl = NewBits(e.sys.NumPoints())
		}
	case *viewAtomF:
		pc := e.procClassesFor(g.p)
		tbl = e.expandClasses(pc, e.classVals(pc, g.pred))
	case *notF:
		tbl = e.Eval(g.f).Clone()
		tbl.NotSelf()
	case *andF:
		tbl = NewBits(e.sys.NumPoints())
		tbl.Fill(true)
		for _, sub := range g.fs {
			tbl.AndWith(e.Eval(sub))
		}
	case *orF:
		tbl = NewBits(e.sys.NumPoints())
		for _, sub := range g.fs {
			tbl.OrWith(e.Eval(sub))
		}
	case *kF:
		tbl = e.evalK(g.i, e.Eval(g.f), nil)
	case *bF:
		tbl = e.evalK(g.i, e.Eval(g.f), g.s)
	case *eF:
		tbl = e.evalE(g.s, e.Eval(g.f))
	case *cF:
		tbl = e.evalC(g.s, e.Eval(g.f))
	case *boxF:
		tbl = e.evalBox(e.Eval(g.f), false)
	case *diamondF:
		tbl = e.evalBox(e.Eval(g.f), true)
	case *cboxF:
		tbl = e.evalCBox(g.s, e.Eval(g.f))
	case *henceforthF:
		tbl = e.evalSuffix(e.Eval(g.f), false)
	case *futureF:
		tbl = e.evalSuffix(e.Eval(g.f), true)
	case *ediamondF:
		tbl = e.evalEDiamond(g.s, e.Eval(g.f))
	case *cdiamondF:
		tbl = e.evalCDiamond(g.s, e.Eval(g.f))
	default:
		panic("knowledge: unknown formula type")
	}
	e.memo[f] = tbl
	return tbl
}

// frontierFor returns (building on first use) the cached frontier for
// the set: per-processor membership masks and their union. The
// reachability components hang off the frontier lazily (pointComponents
// / runComponents). The cache key is the NonrigidSet itself, so
// distinct sets — even ones denoting the same membership — never share
// a frontier.
func (e *Evaluator) frontierFor(s NonrigidSet) *frontier {
	if fr, ok := e.frontiers[s]; ok {
		return fr
	}
	fr := &frontier{masks: e.membership(s), occupied: NewBits(e.sys.NumPoints())}
	for _, mask := range fr.masks {
		fr.occupied.OrWith(mask)
	}
	e.frontiers[s] = fr
	return fr
}

// membership returns the set's per-processor membership masks, each
// computed at the granularity its part of the set is constant at: 𝒩
// once per run, a rigid set once, a view-defined set once per view, an
// intersection as a word-level AND of its operands' masks. Only a
// NonrigidSet implemented outside this package is asked for Members
// point by point. The masks of a set that already has a frontier are
// the frontier's own and must not be modified.
func (e *Evaluator) membership(s NonrigidSet) []*Bits {
	if fr, ok := e.frontiers[s]; ok {
		return fr.masks
	}
	np := e.sys.NumPoints()
	masks := make([]*Bits, e.sys.Params.N)
	switch g := s.(type) {
	case *intersectSet:
		a, b := e.membership(g.a), e.membership(g.b)
		for i := range masks {
			masks[i] = a[i].Clone()
			masks[i].AndWith(b[i])
		}
		return masks
	case *viewSet:
		for i := range masks {
			pc := e.procClassesFor(types.ProcID(i))
			masks[i] = e.expandClasses(pc, e.classVals(pc, g.pred))
		}
		return masks
	}
	for i := range masks {
		masks[i] = NewBits(np)
	}
	switch g := s.(type) {
	case *nonfaultySet:
		e.fillRuns(func(run system.Run, base, end int) {
			run.Nonfaulty().ForEach(func(i types.ProcID) bool {
				masks[i].SetRange(base, end)
				return true
			})
		})
	case *constSet:
		g.set.ForEach(func(i types.ProcID) bool {
			masks[i].Fill(true)
			return true
		})
	default:
		// One word-aligned sharded pass (each shard owns its mask words).
		e.parallelBits(np, func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				s.Members(e.sys, e.sys.PointAt(idx)).ForEach(func(i types.ProcID) bool {
					masks[i].Set(idx, true)
					return true
				})
			}
		})
	}
	return masks
}

// fillRuns calls fn once per run with the run's point-index range
// [base, end), over shards of whole runs: the kernel behind every fact
// that is constant along a run. fn may write only bits in its range.
func (e *Evaluator) fillRuns(fn func(run system.Run, base, end int)) {
	stride := e.sys.Horizon + 1
	e.parallelRuns(e.sys.NumRuns(), func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			fn(e.sys.Run(r), r*stride, (r+1)*stride)
		}
	})
}

// procClassesFor returns (building on first use) processor i's view
// class partition. Classes depend only on the system, never on a
// nonrigid set, so the table is shared by every K_i/B^S_i evaluation.
func (e *Evaluator) procClassesFor(i types.ProcID) *procClasses {
	if pc := e.classes[i]; pc != nil {
		return pc
	}
	np := e.sys.NumPoints()
	classNum := make([]int32, e.sys.Interner.Size())
	for j := range classNum {
		classNum[j] = -1
	}
	pc := &procClasses{classOf: make([]int32, np)}
	for idx := 0; idx < np; idx++ {
		id := e.sys.ViewAt(e.sys.PointAt(idx), i)
		c := classNum[id]
		if c < 0 {
			c = int32(len(pc.classes))
			classNum[id] = c
			pc.classes = append(pc.classes, id)
		}
		pc.classOf[idx] = c
	}
	e.classes[i] = pc
	return pc
}

// classVals asks a view predicate once per class of the partition.
func (e *Evaluator) classVals(pc *procClasses, pred ViewPred) []uint8 {
	vals := make([]uint8, len(pc.classes))
	for c, id := range pc.classes {
		if pred(e.sys.Interner, id) {
			vals[c] = 1
		}
	}
	return vals
}

// expandClasses turns one truth value per view class (0 or 1) into a
// truth table over points, through the partition's classOf index,
// building each 64-point word in a register without a branch per
// point.
func (e *Evaluator) expandClasses(pc *procClasses, vals []uint8) *Bits {
	np := e.sys.NumPoints()
	out := NewBits(np)
	classOf := pc.classOf
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

// evalK computes K_i f (s == nil) or B^s_i f: at each point, the
// conjunction of f over the points where i has the same view — for B,
// restricted to points where i ∈ S. Truth of K_i f is constant on each
// view class, so the falsifying points (f fails and, for B, i ∈ S) are
// formed with word operations, each one refutes its class, and the
// per-class verdicts are expanded to points: the work is proportional
// to the number of falsifying points, not to the size of the system.
func (e *Evaluator) evalK(i types.ProcID, ft *Bits, s NonrigidSet) *Bits {
	bad := ft.Clone()
	bad.NotSelf()
	if s != nil {
		bad.AndWith(e.frontierFor(s).masks[i])
	}
	pc := e.procClassesFor(i)
	vals := make([]uint8, len(pc.classes))
	for c := range vals {
		vals[c] = 1
	}
	for wi, w := range bad.w {
		for ; w != 0; w &= w - 1 {
			vals[pc.classOf[wi<<6+bits.TrailingZeros64(w)]] = 0
		}
	}
	return e.expandClasses(pc, vals)
}

// evalE computes E_S f = ∧_{i∈S(pt)} B^S_i f as pure word operations:
// starting from all-true, each processor i removes the points where i
// is in S but B^S_i f fails — out &^= (masks[i] ∧ ¬B_i). Points with
// S(pt) empty keep the vacuous truth (their mask bits are all zero).
func (e *Evaluator) evalE(s NonrigidSet, ft *Bits) *Bits {
	n := e.sys.Params.N
	fr := e.frontierFor(s)
	np := e.sys.NumPoints()
	out := NewBits(np)
	out.Fill(true)
	tmp := NewBits(np)
	for i := 0; i < n; i++ {
		b := e.evalK(types.ProcID(i), ft, s)
		tmp.CopyFrom(fr.masks[i])
		tmp.AndNotWith(b)
		out.AndNotWith(tmp)
	}
	return out
}

// unionClasses joins, for every view, the images under pos of the
// points where the view's owner holds it and is in S (a view nobody in
// S holds joins nothing). It is sequential at every parallelism: the
// scan is one visit per point and processor, and sharding it meant
// buffering every union edge per shard to apply afterwards, which
// measured slower than this loop. The resulting partition does not
// depend on union order.
func (e *Evaluator) unionClasses(uf *unionFind, fr *frontier, pos func(idx int32) int32) {
	for id, nviews := 0, e.sys.Interner.Size(); id < nviews; id++ {
		mask := fr.masks[e.sys.Interner.Proc(views.ID(id))]
		first := int32(-1)
		for _, q := range e.sys.PointIdxWithView(views.ID(id)) {
			if !mask.Get(int(q)) {
				continue
			}
			if first < 0 {
				first = pos(q)
			} else {
				uf.union(first, pos(q))
			}
		}
	}
}

// pointComponents returns (caching on the frontier) the union-find
// over points whose components are the C_S reachability classes:
// points pt, pt' are joined iff some i ∈ S(pt) ∩ S(pt') has the same
// view at both. The flattened root table is cached alongside, so
// repeated C_S evaluations skip both the union pass and the flatten.
func (e *Evaluator) pointComponents(fr *frontier) *unionFind {
	if fr.pointComp != nil {
		return fr.pointComp
	}
	uf := newUnionFind(e.sys.NumPoints())
	e.unionClasses(uf, fr, func(idx int32) int32 { return idx })
	fr.pointComp = uf
	fr.pointRoots = uf.flatten()
	if telemetry.Enabled() {
		observeComponentSizes(fr.pointRoots, mReachPointSize)
	}
	return uf
}

// evalC computes C_S f: at S-empty points C_S f is vacuously true; at
// S-occupied points it is the conjunction of f over the point's
// reachability component (which includes the point itself).
func (e *Evaluator) evalC(s NonrigidSet, ft *Bits) *Bits {
	fr := e.frontierFor(s)
	occupied := fr.occupied
	e.pointComponents(fr)
	np := e.sys.NumPoints()
	// The frontier caches the flattened roots, so the parallel fill
	// below reads them without mutating the union-find's parent links.
	roots := fr.pointRoots
	compAll := make([]bool, np)
	compSeen := make([]bool, np)
	for idx := 0; idx < np; idx++ {
		if !occupied.Get(idx) {
			continue
		}
		root := roots[idx]
		if !compSeen[root] {
			compSeen[root] = true
			compAll[root] = true
		}
		compAll[root] = compAll[root] && ft.Get(idx)
	}
	out := NewBits(np)
	e.parallelBits(np, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			if !occupied.Get(idx) || compAll[roots[idx]] {
				out.Set(idx, true)
			}
		}
	})
	return out
}

// evalBox computes □̂ f (or ◇̂ f when diamond): the truth of f at all
// (some) times of the point's run.
func (e *Evaluator) evalBox(ft *Bits, diamond bool) *Bits {
	np := e.sys.NumPoints()
	out := NewBits(np)
	h := e.sys.Horizon
	e.parallelRuns(e.sys.NumRuns(), func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			base := r * (h + 1)
			val := !diamond
			for m := 0; m <= h; m++ {
				bit := ft.Get(base + m)
				if diamond {
					val = val || bit
				} else {
					val = val && bit
				}
			}
			if val {
				out.SetRange(base, base+h+1)
			}
		}
	})
	return out
}

// evalSuffix computes the future-time modalities: □ f (diamond=false,
// f at every time ≥ now) and ◇ f (diamond=true, f at some time ≥ now).
func (e *Evaluator) evalSuffix(ft *Bits, diamond bool) *Bits {
	np := e.sys.NumPoints()
	out := NewBits(np)
	h := e.sys.Horizon
	e.parallelRuns(e.sys.NumRuns(), func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			base := r * (h + 1)
			val := !diamond
			for m := h; m >= 0; m-- {
				bit := ft.Get(base + m)
				if diamond {
					val = val || bit
				} else {
					val = val && bit
				}
				out.Set(base+m, val)
			}
		}
	})
	return out
}

// evalEDiamond computes E◇_S f = ∧_{i∈S(pt)} ◇ B^S_i f with the same
// word-level kernel as evalE, over ◇ B^S_i f instead of B^S_i f.
func (e *Evaluator) evalEDiamond(s NonrigidSet, ft *Bits) *Bits {
	n := e.sys.Params.N
	fr := e.frontierFor(s)
	np := e.sys.NumPoints()
	out := NewBits(np)
	out.Fill(true)
	tmp := NewBits(np)
	for i := 0; i < n; i++ {
		future := e.evalSuffix(e.evalK(types.ProcID(i), ft, s), true)
		tmp.CopyFrom(fr.masks[i])
		tmp.AndNotWith(future)
		out.AndNotWith(tmp)
	}
	return out
}

// evalCDiamond computes eventual common knowledge as the greatest
// fixed point of X = E◇_S(f ∧ X) by downward iteration (the system is
// finite, so the iteration terminates).
func (e *Evaluator) evalCDiamond(s NonrigidSet, ft *Bits) *Bits {
	sp := e.startSpan("knowledge.fixpoint", telemetry.L("op", "cdiamond"))
	iters := 0
	x := NewBits(e.sys.NumPoints())
	x.Fill(true)
	for {
		mFixpointCDiamond.Inc()
		iters++
		arg := ft.Clone()
		arg.AndWith(x)
		next := e.evalEDiamond(s, arg)
		if next.Equal(x) {
			e.stats.CDiamondIterations += iters
			sp.End(telemetry.L("iterations", strconv.Itoa(iters)))
			return x
		}
		x = next
	}
}

// runComponents returns (caching on the frontier) the union-find over
// runs whose components are the S-□-reachability classes of Corollary
// 3.3: runs r, r' are joined iff some processor i is in S at a point
// of each with the same view at both.
func (e *Evaluator) runComponents(fr *frontier) *unionFind {
	if fr.runComp != nil {
		return fr.runComp
	}
	uf := newUnionFind(e.sys.NumRuns())
	stride := int32(e.sys.Horizon + 1)
	e.unionClasses(uf, fr, func(idx int32) int32 { return idx / stride })
	fr.runComp = uf
	fr.runRoots = uf.flatten()
	if telemetry.Enabled() {
		observeComponentSizes(fr.runRoots, mReachRunSize)
	}
	return uf
}

// evalCBox computes C□_S f by Corollary 3.3: C□_S f holds at a point
// of run r iff f holds at every S-occupied point of every run
// S-□-reachable from r. Runs with no S-occupied points reach nothing,
// so C□_S f holds there vacuously. The value is constant per run
// (Lemma 3.4(g)).
func (e *Evaluator) evalCBox(s NonrigidSet, ft *Bits) *Bits {
	fr := e.frontierFor(s)
	e.runComponents(fr)
	h := e.sys.Horizon
	np := e.sys.NumPoints()
	nr := e.sys.NumRuns()

	// The frontier caches the flattened roots, so the parallel fill
	// below reads them without mutating the union-find's parent links.
	roots := fr.runRoots
	// occupied[r]: whether run r has any S-occupied point.
	// compAll[root]: f holds at every S-occupied point of the
	// component's runs.
	occupied := make([]bool, nr)
	compAll := make([]bool, nr)
	compSeen := make([]bool, nr)
	for r := 0; r < nr; r++ {
		base := r * (h + 1)
		for m := 0; m <= h; m++ {
			if fr.occupied.Get(base + m) {
				occupied[r] = true
				root := roots[r]
				if !compSeen[root] {
					compSeen[root] = true
					compAll[root] = true
				}
				compAll[root] = compAll[root] && ft.Get(base+m)
			}
		}
	}
	out := NewBits(np)
	e.parallelRuns(nr, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			if occupied[r] && !compAll[roots[r]] {
				continue
			}
			out.SetRange(r*(h+1), (r+1)*(h+1))
		}
	})
	return out
}

// CIterConvergence measures the depth of the infinite conjunction
// defining common knowledge: it computes E_S^k φ level by level,
// accumulating ∧_{j≤k} E_S^j φ, and returns the first k at which the
// accumulated table equals the reachability-computed C_S φ. It
// returns ok=false if the conjunction has not converged within
// maxDepth levels (never observed on finite systems; the bound guards
// the loop).
func (e *Evaluator) CIterConvergence(s NonrigidSet, f Formula, maxDepth int) (depth int, ok bool) {
	final := e.Eval(C(s, f))
	cur := e.evalE(s, e.Eval(f))
	acc := cur.Clone()
	for k := 1; k <= maxDepth; k++ {
		mFixpointCIter.Inc()
		e.stats.CIterations++
		if acc.Equal(final) {
			return k, true
		}
		cur = e.evalE(s, cur)
		acc.AndWith(cur)
	}
	return maxDepth, acc.Equal(final)
}

// CBoxIterative computes C□_S f by the definitional iteration
// X_0 = ⊤, X_{k+1} = E□_S(f ∧ X_k) until a fixed point, without the
// reachability shortcut. It exists as a cross-check (tests) and an
// ablation benchmark; Eval(CBox(s, f)) is the fast path.
func (e *Evaluator) CBoxIterative(s NonrigidSet, f Formula) *Bits {
	ft := e.Eval(f)
	sp := e.startSpan("knowledge.fixpoint", telemetry.L("op", "cbox_iterative"))
	iters := 0
	x := NewBits(e.sys.NumPoints())
	x.Fill(true)
	for {
		mFixpointCBoxIter.Inc()
		iters++
		arg := ft.Clone()
		arg.AndWith(x)
		next := e.evalBox(e.evalE(s, arg), false)
		if next.Equal(x) {
			e.stats.CBoxIterativeIterations += iters
			sp.End(telemetry.L("iterations", strconv.Itoa(iters)))
			return x
		}
		x = next
	}
}

// unionFind is a standard disjoint-set structure. Elements are int32:
// the parent array is streamed by every reachability pass over
// million-point systems, and halving its width halves the cache misses
// that dominate component construction (point counts are bounded far
// below 2^31 by memory long before the index type matters).
type unionFind struct {
	parent []int32
	rank   []uint8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]uint8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// flatten returns the root of every element in one pass. find mutates
// parent links (path compression), so concurrent readers must work
// from a flattened snapshot rather than calling find directly.
func (uf *unionFind) flatten() []int32 {
	roots := make([]int32, len(uf.parent))
	for i := range roots {
		roots[i] = uf.find(int32(i))
	}
	return roots
}

func (uf *unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
