package knowledge

import (
	"context"
	"encoding/binary"
	"math/bits"
	"strconv"

	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Telemetry handles for the evaluator hot paths, one atomic add each.
var (
	mEvalCacheHits   = telemetry.Default().Counter("eba_knowledge_eval_cache_hits_total")
	mEvalCacheMisses = telemetry.Default().Counter("eba_knowledge_eval_cache_misses_total")
	// mFrontierBuilds counts frontiers built: one per distinct factored
	// membership an evaluator meets.
	mFrontierBuilds = telemetry.Default().Counter("eba_knowledge_frontier_builds_total")
	// mUnionsPoints and mUnionsRuns count union operations, added once
	// per component build by that build's count.
	mUnionsPoints     = telemetry.Default().Counter("eba_knowledge_unions_total", telemetry.L("space", "points"))
	mUnionsRuns       = telemetry.Default().Counter("eba_knowledge_unions_total", telemetry.L("space", "runs"))
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
	case *atomF, *runAtomF, *viewAtomF, *nonfaultyF, *emptyF:
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

// Evaluator computes truth tables of formulas over one enumerated
// system, memoizing by formula node identity and caching per-set
// reachability structures. A formula that is local to one processor —
// a ViewAtom, K_i, B^S_i, and ¬/∧/∨ over them — is evaluated once per
// view class of that processor into a class table, memoized by
// (processor, formula); Eval expands a class table to points only when
// a point-level operator asks, and Valid, ViewTable and the K/B
// kernels read class tables directly. It is not safe for concurrent
// use from multiple goroutines, but internally shards its heavy stages
// (atom scans, class expansions, per-run modalities) across a worker
// pool bounded by SetParallelism; the resulting tables are
// bit-identical at every parallelism level.
type Evaluator struct {
	sys  *system.System
	memo map[Formula]*Bits
	// locals memoizes class tables: one uint8 per view class of the
	// processor in the key.
	locals map[localKey][]uint8
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

	// frontiers maps every nonrigid set the evaluator has met to the
	// frontier holding its S-derived structures (factored membership,
	// dense masks, point and run components). Sets whose factored
	// memberships are equal share one frontier, so C□, C and the masks
	// over an equal set cost nothing after the first: byContent keys the
	// frontiers by the exact bytes of their memberships (contentKey).
	frontiers map[NonrigidSet]*frontier
	byContent map[string]*frontier
	// part caches the view-class partition of the point space
	// (independent of any nonrigid set), so no class table rebuilds the
	// class map across formulas or sets.
	part *partition
	// nfMasks and nfClasses cache 𝒩 per processor, point by point
	// (nonfaultyMasks) and class by class (nonfaultyClasses).
	nfMasks   []*Bits
	nfClasses [][]uint8
}

// frontier is every structure the evaluator derives from one nonrigid
// set, built on first use and reused across formulas:
//
//   - members: each processor's membership, factored (see member) —
//     the only part built with the frontier;
//   - masks: each processor's dense membership mask (bit idx set in
//     masks[i] iff i ∈ S at point idx), the word-level form the E_S,
//     E◇_S, C◇_S and non-local B^S_i kernels consume — built per
//     processor on first use (mask), never by C or C□;
//   - occupied: bit idx set iff S is nonempty at idx, filled by the
//     first component build;
//   - pointRoots and runRoots: the C_S and C□_S reachability components,
//     one entry per point or run naming the smallest point or run of its
//     component, both built by one union-find over view IDs.
type frontier struct {
	members  []member
	masks    []*Bits
	occupied *Bits

	pointRoots []int32
	runRoots   []int32
}

// member is one processor's membership in a set, factored by the
// granularity each part is constant at: i ∈ S at a point iff i is not
// out, i is nonfaulty in the point's run if nf is set, and the views
// part, unless nil, holds for i's class there. A rigid set marks the
// processors it lacks out, 𝒩 sets nf (read once per run from the
// pattern, into nonfaultyMasks), FromViews is a views part (asked once
// per class), and
// Intersect ORs the flags and ANDs the views parts; a views part under
// nf is then cut to the classes held while nonfaulty (canonical). Views
// parts may be shared between sets and are never modified.
type member struct {
	out, nf bool
	views   []uint8
}

// NewEvaluator creates an evaluator for the system, with the internal
// worker pool defaulting to runtime.GOMAXPROCS(0).
func NewEvaluator(sys *system.System) *Evaluator {
	e := &Evaluator{
		sys:       sys,
		memo:      make(map[Formula]*Bits),
		locals:    make(map[localKey][]uint8),
		frontiers: make(map[NonrigidSet]*frontier),
		byContent: make(map[string]*frontier),
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
	// CDiamondIterations counts C◇ worklist rounds: per evaluation, its
	// non-empty layers plus the empty one that ends it, which is the
	// downward iteration's iteration count.
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
// paper's ℛ ⊨ φ). A ViewAtom, K_i or B^S_i is valid iff its class table
// is true on every class, so it is never expanded to points.
func (e *Evaluator) Valid(f Formula) bool {
	if i, ok := owner(f); ok {
		for _, v := range e.local(i, f) {
			if v == 0 {
				return false
			}
		}
		return true
	}
	return e.Eval(f).All()
}

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
		if int(g.p) >= 0 && int(g.p) < e.sys.Params.N {
			tbl = e.mask(e.frontierFor(theNonfaulty), g.p)
		} else {
			tbl = NewBits(e.sys.NumPoints())
		}
	case *emptyF:
		fr := e.frontierFor(g.s)
		tbl = NewBits(e.sys.NumPoints())
		tbl.Fill(true)
		for i := 0; i < e.sys.Params.N; i++ {
			tbl.AndNotWith(e.mask(fr, types.ProcID(i)))
		}
	case *viewAtomF, *kF, *bF:
		i, _ := owner(f)
		tbl = e.expandClasses(i, e.local(i, f))
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
	case *eF:
		tbl = e.evalE(g.s, e.Eval(g.f), false)
	case *cF:
		tbl = e.evalC(g.s, e.Eval(g.f))
	case *boxF:
		tbl = e.evalTime(e.Eval(g.f), false, true)
	case *diamondF:
		tbl = e.evalTime(e.Eval(g.f), true, true)
	case *cboxF:
		tbl = e.evalCBox(g.s, e.Eval(g.f))
	case *henceforthF:
		tbl = e.evalTime(e.Eval(g.f), false, false)
	case *futureF:
		tbl = e.evalTime(e.Eval(g.f), true, false)
	case *ediamondF:
		tbl = e.evalE(g.s, e.Eval(g.f), true)
	case *cdiamondF:
		tbl = e.evalCDiamond(g.s, e.Eval(g.f))
	default:
		panic("knowledge: unknown formula type")
	}
	e.memo[f] = tbl
	return tbl
}

// frontierFor returns the set's frontier: the one the set was given
// before, else the frontier of an earlier set with equal factored
// membership, else a new one (counted by mFrontierBuilds). Building it
// factors the set's membership and nothing else; dense masks and
// reachability components hang off the frontier lazily.
func (e *Evaluator) frontierFor(s NonrigidSet) *frontier {
	if fr, ok := e.frontiers[s]; ok {
		return fr
	}
	ms := s.factor(e)
	e.canonical(ms)
	key := contentKey(ms)
	fr, ok := e.byContent[key]
	if !ok {
		mFrontierBuilds.Inc()
		fr = &frontier{members: ms, masks: make([]*Bits, e.sys.Params.N)}
		e.byContent[key] = fr
	}
	e.frontiers[s] = fr
	return fr
}

// canonical cuts, wherever a processor's membership asks nf, its views
// part to the classes whose view it holds somewhere while nonfaulty: a
// class outside them admits no point either way, so two sets that
// differ only there (𝒩∧P0.Z and 𝒩∧FΛ¹.Z in the crash mode) compare
// equal. No processor's membership changes.
func (e *Evaluator) canonical(ms []member) {
	for i := range ms {
		if mb := &ms[i]; mb.nf && mb.views != nil {
			mb.views = andViews(mb.views, e.nonfaultyClasses()[i])
		}
	}
}

// contentKey is a factored membership's exact content: per processor,
// a byte of its three flags (out, nf, views != nil), then its views
// part's length as a uvarint and the part's bytes, so each processor's
// entry ends where its length says and equal keys are equal
// memberships.
func contentKey(ms []member) string {
	var key []byte
	for _, mb := range ms {
		var flags byte
		if mb.out {
			flags |= 1
		}
		if mb.nf {
			flags |= 2
		}
		if mb.views != nil {
			flags |= 4
		}
		key = append(key, flags)
		key = binary.AppendUvarint(key, uint64(len(mb.views)))
		key = append(key, mb.views...)
	}
	return string(key)
}

// andViews ANDs two views parts, nil admitting everything; a part
// ANDed with nil is shared, not copied.
func andViews(a, b []uint8) []uint8 {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := append([]uint8(nil), a...)
	classAnd(out, b)
	return out
}

// mask returns (building on first use) processor i's dense membership
// mask in the frontier's set. Only the kernels that consume masks word
// by word (E_S, E◇_S, C◇_S, B^S_i over a non-local formula, S = ∅ and
// i ∈ 𝒩) ask.
func (e *Evaluator) mask(fr *frontier, i types.ProcID) *Bits {
	if m := fr.masks[i]; m != nil {
		return m
	}
	mb := &fr.members[i]
	var m *Bits
	switch {
	case mb.out:
		m = NewBits(e.sys.NumPoints())
	case mb.views != nil:
		m = e.expandClasses(i, mb.views)
		if mb.nf {
			m.AndWith(e.nonfaultyMasks()[i])
		}
	case mb.nf:
		m = e.nonfaultyMasks()[i]
	default:
		m = NewBits(e.sys.NumPoints())
		m.Fill(true)
	}
	fr.masks[i] = m
	return m
}

// nonfaultyMasks returns (building on first use) 𝒩 as one dense mask
// per processor — bit idx of masks[i] set iff i is nonfaulty in idx's
// run — written a run at a time from the run's pattern. They are the
// run-level part of every membership that asks nf, as the masks and
// the component builders read it.
func (e *Evaluator) nonfaultyMasks() []*Bits {
	if e.nfMasks != nil {
		return e.nfMasks
	}
	ms := make([]*Bits, e.sys.Params.N)
	for i := range ms {
		ms[i] = NewBits(e.sys.NumPoints())
	}
	e.fillRuns(func(run system.Run, base, end int) {
		run.Nonfaulty().ForEach(func(i types.ProcID) bool {
			ms[i].SetRange(base, end)
			return true
		})
	})
	e.nfMasks = ms
	return ms
}

// runParts returns, per processor, 𝒩's mask of it when its membership
// in the frontier's set asks nf, and nil when it does not: the run-level
// part as the component builders read it.
func (e *Evaluator) runParts(fr *frontier) []*Bits {
	parts := make([]*Bits, len(fr.members))
	for i, mb := range fr.members {
		if mb.nf && mutant != "member_nf" {
			parts[i] = e.nonfaultyMasks()[i]
		}
	}
	return parts
}

// someIn returns the class table of "i ∈ S at some point of the class"
// for the frontier's set: ¬someIn is B^S_i ⊥, and B^S_i L = L ∨ ¬someIn
// for every L local to i. It is the views part (cut to 𝒩's classes
// under nf by canonical), 𝒩's classes under nf alone, all classes, or
// none when i is out.
func (e *Evaluator) someIn(fr *frontier, i types.ProcID) []uint8 {
	mb := &fr.members[i]
	switch {
	case mb.out:
		return classFill(len(e.partition().views[i]), false)
	case mb.views != nil:
		return mb.views
	case mb.nf:
		return e.nonfaultyClasses()[i]
	}
	return classFill(len(e.partition().views[i]), true)
}

// nonfaultyClasses returns (building on first use) 𝒩's class tables —
// "i is nonfaulty at some point of the class" — for every processor, from
// the views nonfaulty processors hold at the horizon
// (System.NonfaultyHolders) and their histories: a run's rows are each
// processor's own history, so a nonfaulty processor's earlier views are
// its final view's Prev chain. A chain stops at the first class already
// marked, whose history is.
func (e *Evaluator) nonfaultyClasses() [][]uint8 {
	if e.nfClasses != nil {
		return e.nfClasses
	}
	p, in := e.partition(), e.sys.Interner
	cls := make([][]uint8, e.sys.Params.N)
	for i := range cls {
		cls[i] = classFill(len(p.views[i]), false)
	}
	for id, w := range e.sys.NonfaultyHolders() {
		if w == 0 {
			continue
		}
		vals := cls[in.Proc(views.ID(id))]
		for v := views.ID(id); v != views.NoView && vals[p.of[v]] == 0; v = in.Prev(v) {
			vals[p.of[v]] = 1
		}
	}
	e.nfClasses = cls
	return cls
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

// evalK computes B^s_i over the truth table ft (K_i when s is nil) as
// a point table: the class table of the falsifying points, expanded.
// It serves the table-level kernels (E_S, E◇_S and the fixed points
// over them); formula nodes go through the class tables of local.go.
func (e *Evaluator) evalK(i types.ProcID, ft *Bits, s NonrigidSet) *Bits {
	var mask *Bits
	if s != nil {
		mask = e.mask(e.frontierFor(s), i)
	}
	return e.expandClasses(i, e.refute(i, ft, mask))
}

// evalE computes E_S f = ∧_{i∈S(pt)} B^S_i f as pure word operations:
// starting from all-true, each processor i removes the points where i
// is in S but B^S_i f fails — out &^= (masks[i] ∧ ¬B_i). Points with
// S(pt) empty keep the vacuous truth (their mask bits are all zero).
// With future it computes E◇_S f = ∧_{i∈S(pt)} ◇ B^S_i f, over
// ◇ B^S_i f instead of B^S_i f.
func (e *Evaluator) evalE(s NonrigidSet, ft *Bits, future bool) *Bits {
	fr, np := e.frontierFor(s), e.sys.NumPoints()
	out, tmp := NewBits(np), NewBits(np)
	out.Fill(true)
	for i := types.ProcID(0); int(i) < e.sys.Params.N; i++ {
		b := e.evalK(i, ft, s)
		if future {
			b = e.evalTime(b, true, false)
		}
		tmp.CopyFrom(e.mask(fr, i))
		tmp.AndNotWith(b)
		out.AndNotWith(tmp)
	}
	return out
}

// admitted returns, indexed by view ID over the partition, whether the
// view's owner's membership admits it as a view: the owner is not out
// and the views part holds for the view's class. It is the view-level
// half of "the owner is in S where it holds the view"; runParts is the
// run-level half. A view no point holds is never admitted.
func (e *Evaluator) admitted(fr *frontier) []bool {
	of, in := e.partition().of, e.sys.Interner
	adm := make([]bool, len(of))
	for v, c := range of {
		mb := &fr.members[in.Proc(views.ID(v))]
		adm[v] = c >= 0 && !mb.out && (mb.views == nil || mb.views[c] != 0)
	}
	return adm
}

// label turns a table of attached view IDs (-1 for none), one per run
// or point, into a root table: each element is labelled with the
// smallest element index attached to its view's component, or its own
// index if it attaches nowhere. Elements in one component share a
// label, and labels are element indices. It records the build's unions.
func label(uf *unionFind, roots []int32, unions *telemetry.Counter) []int32 {
	first := make([]int32, len(uf.parent))
	for v := range first {
		first[v] = -1
	}
	for k, v := range roots {
		if v < 0 {
			roots[k] = int32(k)
			continue
		}
		root := uf.find(v)
		if first[root] < 0 {
			first[root] = int32(k)
		}
		roots[k] = first[root]
	}
	unions.Add(uf.unions)
	return roots
}

// pointComponents returns (caching on the frontier) the root table of
// the C_S reachability classes: points pt, pt' are joined iff some
// i ∈ S(pt) ∩ S(pt') has the same view at both. One pass over the rows
// attaches each point to the admitted views its members hold there and
// unions those views with each other, so the union-find covers views
// only: two points that share a member's view share its element. It
// fills the frontier's occupied table if no build has. It is sequential
// at every parallelism; the partition does not depend on union order.
func (e *Evaluator) pointComponents(fr *frontier) []int32 {
	if fr.pointRoots != nil {
		return fr.pointRoots
	}
	sys, n := e.sys, e.sys.Params.N
	adm := e.admitted(fr)
	uf := newUnionFind(len(adm))
	fill := fr.occupied == nil
	if fill {
		fr.occupied = NewBits(sys.NumPoints())
	}
	vs, nfm := sys.Table().Views, e.runParts(fr)
	roots := make([]int32, sys.NumPoints()) // the point's first attached view, until labelled
	for idx := range roots {
		first := int32(-1)
		for i, v := range vs[idx*n : (idx+1)*n] {
			if adm[v] && (nfm[i] == nil || nfm[i].Get(idx)) {
				first = uf.union(first, int32(v))
			}
		}
		roots[idx] = first
		if fill && first >= 0 {
			fr.occupied.Set(idx, true)
		}
	}
	fr.pointRoots = label(uf, roots, mUnionsPoints)
	return fr.pointRoots
}

// evalC computes C_S f: at S-empty points C_S f is vacuously true; at
// S-occupied points it is the conjunction of f over the point's
// reachability component (which includes the point itself).
func (e *Evaluator) evalC(s NonrigidSet, ft *Bits) *Bits {
	fr := e.frontierFor(s)
	return e.verdict(fr, ft, e.pointComponents(fr), 1)
}

// verdict writes the C_S or C□_S table from a root table over elements
// of stride points each (points, or runs): an element's points hold iff
// its component has no S-occupied point where ft fails. An element S
// never occupies is never joined to anything, so it is its own root and
// never marked.
func (e *Evaluator) verdict(fr *frontier, ft *Bits, roots []int32, stride int) *Bits {
	bad := make([]bool, len(roots))
	for wi, w := range fr.occupied.w {
		for w &^= ft.w[wi]; w != 0; w &= w - 1 {
			bad[roots[(wi<<6+bits.TrailingZeros64(w))/stride]] = true
		}
	}
	out := NewBits(e.sys.NumPoints())
	// Shards of 64 elements start on word boundaries at any stride.
	e.parallelBits(len(roots), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if !bad[roots[k]] {
				out.SetRange(k*stride, (k+1)*stride)
			}
		}
	})
	return out
}

// evalTime computes the temporal modalities run by run: □ f (f at
// every time ≥ now) or, with diamond, ◇ f (f at some time ≥ now); with
// whole, □̂ f or ◇̂ f (f at all or some times of the run), the time-0
// value of □ f or ◇ f written to every time of the run.
func (e *Evaluator) evalTime(ft *Bits, diamond, whole bool) *Bits {
	out, h := NewBits(e.sys.NumPoints()), e.sys.Horizon
	e.parallelRuns(e.sys.NumRuns(), func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			base, val := r*(h+1), !diamond
			for m := h; m >= 0; m-- {
				if ft.Get(base+m) == diamond {
					val = diamond
				}
				if !whole {
					out.Set(base+m, val)
				}
			}
			if whole && val {
				out.SetRange(base, base+h+1)
			}
		}
	})
	return out
}

// evalCDiamond computes eventual common knowledge C◇_S f, the greatest
// fixed point of X = E◇_S(f ∧ X), as a layered worklist over the view
// DAG. B^S_i(f ∧ X) is a class table and a class is one view, so the
// worklist keeps it per view (holds). ◇B^S_i holds at (r, m) iff m is at
// most the latest time of run r at which i's class holds; a
// full-information view fixes its owner's whole history, so that time
// is a function of i's final view in r, and last[v] is the latest time
// on v's Prev chain, v included, at which the view holds (-1 for none).
//
//   - The first round fills holds from f alone and last in view ID
//     order (a view's Prev has a smaller ID), and removes from X every
//     point (r, m) with m past last of the final view of some i ∈ S
//     there.
//   - Each later round takes the layer of points the round before
//     removed. A point leaving X refutes at most one view per processor
//     i ∈ S there: i's view at the point. Each refuted view v, at time
//     m, is then walked: last falls on v and on the views after it (its
//     successors, the views whose Prev it is, and theirs) whose last is
//     m, to the latest holding time before m. The runs that end in a
//     lowered view lose the points after the new last, up to m, at
//     which i ∈ S: the next layer.
//
// A layer is exactly what one round of the downward iteration removes,
// so the rounds (the non-empty layers and the empty one that ends the
// loop) are its iteration count. The two view indexes the later rounds
// walk, finals and successors, are built once per call and dropped on
// return. It is sequential at every parallelism.
func (e *Evaluator) evalCDiamond(s NonrigidSet, ft *Bits) *Bits {
	sp := e.startSpan("knowledge.fixpoint", telemetry.L("op", "cdiamond"))
	sys, in, fr := e.sys, e.sys.Interner, e.frontierFor(s)
	n, h, stride, nv := sys.Params.N, sys.Horizon, sys.Horizon+1, sys.Interner.Size()
	vs := sys.Table().Views
	// Every point at which f fails and i is in S refutes i's view there.
	masks, holds := make([]*Bits, n), make([]bool, nv)
	for v := range holds {
		holds[v] = true
	}
	for i := range masks {
		masks[i] = e.mask(fr, types.ProcID(i))
		for wi, w := range ft.w {
			for w = masks[i].w[wi] &^ w; w != 0; w &= w - 1 {
				holds[vs[(wi<<6+bits.TrailingZeros64(w))*n+i]] = false
			}
		}
	}
	prev, last := make([]views.ID, nv), make([]int32, nv)
	for v := range last {
		switch prev[v] = in.Prev(views.ID(v)); {
		case holds[v]:
			last[v] = int32(in.Time(views.ID(v)))
		case prev[v] != views.NoView:
			last[v] = last[prev[v]]
		default:
			last[v] = -1
		}
	}
	x, layer, size := NewBits(sys.NumPoints()), NewBits(sys.NumPoints()), 0
	x.Fill(true)
	// drop moves the points of run r at times in (lo, hi] at which i is
	// in S from X to the layer.
	drop := func(i types.ProcID, r int, lo, hi int32) {
		for idx := r*stride + int(lo) + 1; idx <= r*stride+int(hi); idx++ {
			if masks[i].Get(idx) && x.Get(idx) {
				x.Set(idx, false)
				layer.Set(idx, true)
				size++
			}
		}
	}
	// finals lists the runs each view ends (in which its owner holds it
	// at the horizon): counted on the first round's pass over the horizon
	// rows, filled only if a later round reads it.
	final := func(r int) []views.ID { return vs[(r*stride+h)*n : (r*stride+h+1)*n] }
	finals := newByView(nv)
	for r := 0; r < sys.NumRuns(); r++ {
		for i, v := range final(r) {
			finals.count(v)
			drop(types.ProcID(i), r, last[v], int32(h))
		}
	}

	rounds := 1
	var succ byView
	if size > 0 {
		finals.alloc()
		for r := 0; r < sys.NumRuns(); r++ {
			for _, v := range final(r) {
				finals.put(v, int32(r))
			}
		}
		finals.seal()
		succ = successors(prev)
	}
	var refuted []views.ID
	var stack []int32
	inS := make([]uint64, n) // a layer word's points at which i ∈ S
	for ; size > 0; rounds++ {
		// The layer's refutations, in point order: the run table is read
		// front to back.
		refuted = refuted[:0]
		for wi, w := range layer.w {
			if w == 0 {
				continue
			}
			for i, mask := range masks {
				inS[i] = w & mask.w[wi]
			}
			for ; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				for i, v := range vs[(wi<<6+b)*n : (wi<<6+b+1)*n] {
					if inS[i]>>b&1 != 0 && holds[v] && !(mutant == "cdia_layer" && i == n-1) {
						holds[v] = false
						refuted = append(refuted, v)
					}
				}
			}
		}
		clear(layer.w)
		size = 0
		for _, v := range refuted {
			i, m, lo := in.Proc(v), int32(in.Time(v)), int32(-1)
			for u := prev[v]; u != views.NoView; u = prev[u] {
				if holds[u] {
					lo = int32(in.Time(u))
					break
				}
			}
			for stack = append(stack[:0], int32(v)); len(stack) > 0; {
				w := views.ID(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				if last[w] != m {
					continue
				}
				last[w] = lo
				for _, r := range finals.of(w) {
					drop(i, int(r), lo, m)
				}
				stack = append(stack, succ.of(w)...)
			}
		}
	}
	mFixpointCDiamond.Add(uint64(rounds))
	e.stats.CDiamondIterations += rounds
	sp.End(telemetry.L("iterations", strconv.Itoa(rounds)))
	return x
}

// byView lists int32 elements per view: view v's are
// list[start[v]:start[v+1]].
type byView struct{ start, list []int32 }

func (t byView) of(v views.ID) []int32 { return t.list[t.start[v]:t.start[v+1]] }

// newByView starts an index over nv views: count each element's
// view, alloc, put each element in order, then seal.
func newByView(nv int) byView { return byView{start: make([]int32, nv+1)} }

func (t *byView) count(v views.ID) { t.start[v+1]++ }

// alloc turns the counts into each view's first offset.
func (t *byView) alloc() {
	for v := 1; v < len(t.start); v++ {
		t.start[v] += t.start[v-1]
	}
	t.list = make([]int32, t.start[len(t.start)-1])
}

// put appends x to v's elements, advancing v's offset to its end.
func (t *byView) put(v views.ID, x int32) {
	t.list[t.start[v]] = x
	t.start[v]++
}

// seal moves the offsets put advanced back to each view's first.
func (t *byView) seal() {
	copy(t.start[1:], t.start)
	t.start[0] = 0
}

// successors indexes, for every view, the views whose Prev (in prev) it
// is, in ascending order.
func successors(prev []views.ID) byView {
	succ := newByView(len(prev))
	for _, u := range prev {
		if u != views.NoView {
			succ.count(u)
		}
	}
	succ.alloc()
	for v, u := range prev {
		if u != views.NoView {
			succ.put(u, int32(v))
		}
	}
	succ.seal()
	return succ
}

// runComponents returns (caching on the frontier) the root table of the
// S-□-reachability classes of Corollary 3.3: runs r, r' are joined iff
// some processor i is in S at a point of each with the same view at
// both. It reads them off the interner's view DAG in two passes with no
// point-level work. A full-information view fixes its owner's whole
// history (Prev), so if i holds one view at time m in two runs it holds
// the same views at every earlier time in both.
//
//   - View pass, in ID order (a view's Prev has a smaller ID): last[v]
//     is the latest admitted view (admitted) on v's Prev chain, v
//     included, skipping the gaps where the owner is out of S; v's
//     ⌈(H+1)/64⌉ occ words have bit m set iff the chain's time-m view is
//     admitted. Each admitted view is joined to last[Prev(v)].
//   - Run pass, over the horizon row alone: each processor the run-level
//     part admits in the run (read at its first point: 𝒩 is constant
//     along a run) attaches the run to last of its final view, and ORs
//     that view's occ into the times at which S is occupied. The views
//     one run attaches to are joined.
//
// Per processor the admitted views form a forest, and two runs attached
// to one tree both hold their attachment points' lowest common ancestor
// while in S, so they are S-□-reachable; a view no admitted run holds
// hangs off its ancestor and bridges nothing. DESIGN.md §13 has the
// argument in full; the view-index walk kept in the tests is its
// oracle. It fills the frontier's occupied table if no build has.
func (e *Evaluator) runComponents(fr *frontier) []int32 {
	if fr.runRoots != nil {
		return fr.runRoots
	}
	sys, in := e.sys, e.sys.Interner
	n, h, stride := sys.Params.N, sys.Horizon, sys.Horizon+1
	adm := e.admitted(fr)
	nv, words := len(adm), (stride+63)/64
	uf := newUnionFind(nv)
	last := make([]views.ID, nv)
	occ := make([]uint64, nv*words)
	for v := range adm {
		l, o := views.NoView, occ[v*words:(v+1)*words]
		prev := in.Prev(views.ID(v))
		if prev != views.NoView {
			l = last[prev]
			copy(o, occ[int(prev)*words:])
		}
		if adm[v] {
			if mutant == "chain_nogap" {
				l = prev
			}
			uf.union(int32(l), int32(v))
			l = views.ID(v)
			m := int(in.Time(l))
			o[m>>6] |= 1 << uint(m&63)
		}
		last[v] = l
	}

	fill := fr.occupied == nil
	if fill {
		fr.occupied = NewBits(sys.NumPoints())
	}
	vs, nfm := sys.Table().Views, e.runParts(fr)
	roots := make([]int32, sys.NumRuns()) // the run's first attached view, until labelled
	times := make([]uint64, words)
	for r := range roots {
		base, first := r*stride, int32(-1)
		clear(times)
		for i, v := range vs[(base+h)*n : (base+h+1)*n] {
			if last[v] == views.NoView || nfm[i] != nil && !nfm[i].Get(base) {
				continue
			}
			first = uf.union(first, int32(last[v]))
			for w, o := range occ[int(v)*words : (int(v)+1)*words] {
				times[w] |= o
			}
			for m := 0; mutant == "chain_occupied" && last[v] == v && m < stride; m++ {
				times[m>>6] |= 1 << uint(m&63)
			}
		}
		roots[r] = first
		for w, t := range times {
			for ; fill && t != 0; t &= t - 1 {
				fr.occupied.Set(base+w<<6+bits.TrailingZeros64(t), true)
			}
		}
	}
	fr.runRoots = label(uf, roots, mUnionsRuns)
	return fr.runRoots
}

// evalCBox computes C□_S f by Corollary 3.3: C□_S f holds at a point
// of run r iff f holds at every S-occupied point of every run
// S-□-reachable from r. Runs with no S-occupied points reach nothing,
// so C□_S f holds there vacuously. The value is constant per run
// (Lemma 3.4(g)).
func (e *Evaluator) evalCBox(s NonrigidSet, ft *Bits) *Bits {
	fr := e.frontierFor(s)
	return e.verdict(fr, ft, e.runComponents(fr), e.sys.Horizon+1)
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
	cur := e.evalE(s, e.Eval(f), false)
	acc := cur.Clone()
	for k := 1; k <= maxDepth; k++ {
		mFixpointCIter.Inc()
		e.stats.CIterations++
		if acc.Equal(final) {
			return k, true
		}
		cur = e.evalE(s, cur, false)
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
		next := e.evalTime(e.evalE(s, arg, false), false, true)
		if next.Equal(x) {
			e.stats.CBoxIterativeIterations += iters
			sp.End(telemetry.L("iterations", strconv.Itoa(iters)))
			return x
		}
		x = next
	}
}

// unionFind is a standard disjoint-set structure over view IDs. Elements
// are int32, the width of a run or point index in the root tables the
// component builders label from it.
type unionFind struct {
	parent []int32
	rank   []uint8
	// unions counts union calls, for eba_knowledge_unions_total.
	unions uint64
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

// union joins a's and b's components and returns a, the element an
// element attaches through first; a = -1 (no element yet) joins nothing
// and returns b.
func (uf *unionFind) union(a, b int32) int32 {
	if a < 0 {
		return b
	}
	uf.unions++
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return a
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return a
}
