package knowledge

import (
	"bytes"
	"context"
	"hash/fnv"
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
	// mFrontierBuilds counts frontiers built: one per distinct factored
	// membership an evaluator meets, and one per set with a points part
	// of its own.
	mFrontierBuilds = telemetry.Default().Counter("eba_knowledge_frontier_builds_total")
	// mUnionsPoints and mUnionsRuns count union operations, added once
	// per component build by that build's count.
	mUnionsPoints   = telemetry.Default().Counter("eba_knowledge_unions_total", telemetry.L("space", "points"))
	mUnionsRuns     = telemetry.Default().Counter("eba_knowledge_unions_total", telemetry.L("space", "runs"))
	mReachPointSize = telemetry.Default().Histogram("eba_knowledge_reachable_set_size",
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
	// over an equal set cost nothing after the first: byContent buckets
	// the frontiers by membersDigest, and a set joins one only when every
	// part is equal (see sameMembers). A set with a points part other
	// than 𝒩's — one implemented outside this package — never shares.
	frontiers map[NonrigidSet]*frontier
	byContent map[uint64][]*frontier
	// part caches the view-class partition of the point space
	// (independent of any nonrigid set), so no class table rebuilds the
	// class map across formulas or sets.
	part *partition
}

// frontier is every structure the evaluator derives from one nonrigid
// set, built on first use and reused across formulas:
//
//   - members: each processor's membership, factored (see member) —
//     the only part built with the frontier;
//   - masks: each processor's dense membership mask (bit idx set in
//     masks[i] iff i ∈ S at point idx), the word-level form the E_S,
//     E◇_S and non-local B^S_i kernels consume — built per processor
//     on first use (mask), never by C or C□;
//   - someIn: per class of i, whether i ∈ S at some point of the class
//     (the B^S_i L = L ∨ ¬someIn identity);
//   - occupied: bit idx set iff S is nonempty at idx, filled by the
//     first component build;
//   - pointRoots and runRoots: the C_S and C□_S reachability components
//     as flattened root tables, one entry per point or run. C□'s are
//     read off the interner's view DAG when membership is a function of
//     views and of facts constant along a run (chainRoots), and off a
//     run-major pass over the run table otherwise (unionMembers).
type frontier struct {
	members  []member
	masks    []*Bits
	someIn   [][]uint8
	occupied *Bits

	pointRoots []int32
	runRoots   []int32
}

// member is one processor's membership in a set, factored by the
// granularity each part is constant at: i ∈ S at point idx iff i is
// not out, the views part holds for i's class at idx, and bit idx of
// the points part is set. A nil part admits everything. FromViews is a
// views part (asked once per class), a rigid set marks the processors
// it lacks out, 𝒩 is a points part written a run at a time (once per
// evaluator), a NonrigidSet implemented outside this package a points
// part asked point by point, and Intersect ANDs the parts; a views
// part under 𝒩's points part is then cut to the classes held while
// nonfaulty (canonical). Parts may be shared between sets and are never
// modified.
type member struct {
	out    bool
	views  []uint8
	points *Bits
}

// NewEvaluator creates an evaluator for the system, with the internal
// worker pool defaulting to runtime.GOMAXPROCS(0).
func NewEvaluator(sys *system.System) *Evaluator {
	e := &Evaluator{
		sys:       sys,
		memo:      make(map[Formula]*Bits),
		locals:    make(map[localKey][]uint8),
		frontiers: make(map[NonrigidSet]*frontier),
		byContent: make(map[uint64][]*frontier),
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

// frontierFor returns the set's frontier: the one the set was given
// before, else the frontier of an earlier set with equal factored
// membership, else a new one (counted by mFrontierBuilds). Building it
// factors the set's membership and nothing else; dense masks, someIn
// tables and reachability components hang off the frontier lazily.
func (e *Evaluator) frontierFor(s NonrigidSet) *frontier {
	if fr, ok := e.frontiers[s]; ok {
		return fr
	}
	ms := e.factor(s)
	e.canonical(ms)
	key := membersDigest(ms)
	for _, fr := range e.byContent[key] {
		if sameMembers(fr.members, ms) {
			e.frontiers[s] = fr
			return fr
		}
	}
	mFrontierBuilds.Inc()
	n := e.sys.Params.N
	fr := &frontier{members: ms, masks: make([]*Bits, n), someIn: make([][]uint8, n)}
	e.frontiers[s] = fr
	e.byContent[key] = append(e.byContent[key], fr)
	return fr
}

// canonical cuts, wherever a processor's points part is 𝒩's, its views
// part to the classes whose view it holds somewhere while nonfaulty: a
// class outside them admits no point either way, so two sets that
// differ only there (𝒩∧P0.Z and 𝒩∧FΛ¹.Z in the crash mode) compare
// equal. No processor's membership changes.
func (e *Evaluator) canonical(ms []member) {
	nf, ok := e.frontiers[theNonfaulty]
	if !ok {
		return
	}
	for i := range ms {
		if mb := &ms[i]; mb.views != nil && mb.points == nf.members[i].points {
			mb.views = andViews(mb.views, e.someIn(nf, types.ProcID(i)))
		}
	}
}

// membersDigest picks the bucket of a factored membership. It only
// narrows the search: sameMembers decides equality.
var membersDigest = func(ms []member) uint64 {
	h := fnv.New64a()
	for _, mb := range ms {
		h.Write([]byte{b2u(mb.out), b2u(mb.views != nil), b2u(mb.points != nil)})
		h.Write(mb.views)
	}
	return h.Sum64()
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// sameMembers reports whether two memberships are equal part by part:
// the out flags, the views parts byte by byte (nil only equal to nil),
// and the points parts by identity. Only 𝒩's points part is ever held
// by two sets — every intersection with 𝒩 takes it from 𝒩's own
// frontier — so a set with any other points part (one implemented
// outside this package) matches no other set.
func sameMembers(a, b []member) bool {
	for i := range a {
		if a[i].out != b[i].out || a[i].points != b[i].points ||
			(a[i].views == nil) != (b[i].views == nil) || !bytes.Equal(a[i].views, b[i].views) {
			return false
		}
	}
	return true
}

// factor returns the set's membership per processor, each part at the
// granularity it is constant at: 𝒩 once per run (and once per
// evaluator, through its own frontier), a rigid set once, a
// view-defined set once per view class, an intersection as an AND of
// its operands' parts. Only a NonrigidSet implemented outside this
// package is asked for Members point by point.
func (e *Evaluator) factor(s NonrigidSet) []member {
	n := e.sys.Params.N
	np := e.sys.NumPoints()
	ms := make([]member, n)
	switch g := s.(type) {
	case *nonfaultySet:
		for i := range ms {
			ms[i].points = NewBits(np)
		}
		e.fillRuns(func(run system.Run, base, end int) {
			run.Nonfaulty().ForEach(func(i types.ProcID) bool {
				ms[i].points.SetRange(base, end)
				return true
			})
		})
	case *constSet:
		for i := range ms {
			ms[i].out = !g.set.Contains(types.ProcID(i))
		}
	case *viewSet:
		for i := range ms {
			ms[i].views = e.classVals(types.ProcID(i), g.pred)
		}
	case *intersectSet:
		a, b := e.operand(g.a), e.operand(g.b)
		for i := range ms {
			ms[i] = member{
				out:    a[i].out || b[i].out,
				views:  andViews(a[i].views, b[i].views),
				points: andBits(a[i].points, b[i].points),
			}
		}
	default:
		// One word-aligned sharded pass (each shard owns its mask words).
		for i := range ms {
			ms[i].points = NewBits(np)
		}
		e.parallelBits(np, func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				s.Members(e.sys, e.sys.PointAt(idx)).ForEach(func(i types.ProcID) bool {
					ms[i].points.Set(idx, true)
					return true
				})
			}
		})
	}
	return ms
}

// operand factors an operand of an intersection. 𝒩 is factored once
// per evaluator, through its own frontier, however many sets
// intersect it.
func (e *Evaluator) operand(s NonrigidSet) []member {
	if s == theNonfaulty {
		return e.frontierFor(s).members
	}
	return e.factor(s)
}

// andViews and andBits AND two membership parts, nil admitting
// everything; a part ANDed with nil is shared, not copied.
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

func andBits(a, b *Bits) *Bits {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := a.Clone()
	out.AndWith(b)
	return out
}

// mask returns (building on first use) processor i's dense membership
// mask in the frontier's set. Only the kernels that consume masks word
// by word (E_S, E◇_S and B^S_i over a non-local formula) ask.
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
		if mb.points != nil {
			m.AndWith(mb.points)
		}
	case mb.points != nil:
		m = mb.points
	default:
		m = NewBits(e.sys.NumPoints())
		m.Fill(true)
	}
	fr.masks[i] = m
	return m
}

// someIn returns (building on first use) the class table of "i ∈ S at
// some point of the class" for the frontier's set: ¬someIn is B^S_i ⊥,
// and B^S_i L = L ∨ ¬someIn for every L local to i. 𝒩's is read off
// the views nonfaulty processors hold (nonfaultyClasses); a membership
// with only a views part is that part; otherwise each member point of
// i's mask marks its class.
func (e *Evaluator) someIn(fr *frontier, i types.ProcID) []uint8 {
	if vals := fr.someIn[i]; vals != nil {
		return vals
	}
	if fr == e.frontiers[theNonfaulty] {
		e.nonfaultyClasses(fr)
		return fr.someIn[i]
	}
	mb := &fr.members[i]
	vals := mb.views
	if mb.out || vals == nil || mb.points != nil {
		p, vs, n := e.partition(), e.sys.Table().Views, e.sys.Params.N
		vals = classFill(len(p.views[i]), false)
		for wi, w := range e.mask(fr, i).w {
			for ; w != 0; w &= w - 1 {
				vals[p.of[vs[(wi<<6+bits.TrailingZeros64(w))*n+int(i)]]] = 1
			}
		}
	}
	fr.someIn[i] = vals
	return vals
}

// nonfaultyClasses fills 𝒩's someIn tables — "i is nonfaulty at some
// point of the class" — for every processor at once, from the views
// nonfaulty processors hold at the horizon (System.NonfaultyHolders) and
// their histories: a run's rows are each processor's own history, so a
// nonfaulty processor's earlier views are its final view's Prev chain.
// A chain stops at the first class already marked, whose history is.
func (e *Evaluator) nonfaultyClasses(fr *frontier) {
	p, in := e.partition(), e.sys.Interner
	for i := range fr.someIn {
		fr.someIn[i] = classFill(len(p.views[i]), false)
	}
	for id, w := range e.sys.NonfaultyHolders() {
		if w == 0 {
			continue
		}
		vals := fr.someIn[in.Proc(views.ID(id))]
		for v := views.ID(id); v != views.NoView && vals[p.of[v]] == 0; v = in.Prev(v) {
			vals[p.of[v]] = 1
		}
	}
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
func (e *Evaluator) evalE(s NonrigidSet, ft *Bits) *Bits {
	n := e.sys.Params.N
	fr := e.frontierFor(s)
	np := e.sys.NumPoints()
	out := NewBits(np)
	out.Fill(true)
	tmp := NewBits(np)
	for i := 0; i < n; i++ {
		b := e.evalK(types.ProcID(i), ft, s)
		tmp.CopyFrom(e.mask(fr, types.ProcID(i)))
		tmp.AndNotWith(b)
		out.AndNotWith(tmp)
	}
	return out
}

// viewsOf returns the partition's view-to-class map if some processor's
// membership has a views part, else nil.
func (e *Evaluator) viewsOf(fr *frontier) []int32 {
	for _, mb := range fr.members {
		if mb.views != nil {
			return e.partition().of
		}
	}
	return nil
}

// unionMembers is the run-major pass behind C_S, and behind the C□_S
// sets chainRoots cannot take: it reads the run table point by point
// and joins every point (with perRun, the point's run) where some
// processor i is in S to the first element seen where i held the same
// view while in S, rep[view]. A view nobody in S holds joins nothing.
// It fills the frontier's occupied table if no build has. It is
// sequential at every parallelism: sharding it meant buffering every
// union edge per shard to apply afterwards, which measured slower than
// this loop. The resulting partition does not depend on union order.
func (e *Evaluator) unionMembers(uf *unionFind, fr *frontier, perRun bool) {
	sys := e.sys
	n, stride := sys.Params.N, sys.Horizon+1
	fill := fr.occupied == nil
	if fill {
		fr.occupied = NewBits(sys.NumPoints())
	}
	of := e.viewsOf(fr)
	rep := make([]int32, sys.Interner.Size())
	for v := range rep {
		rep[v] = -1
	}
	vs := sys.Table().Views
	for r, idx := 0, 0; r < sys.NumRuns(); r++ {
		for end := idx + stride; idx < end; idx++ {
			q := int32(idx)
			if perRun {
				q = int32(r)
			}
			for i, v := range vs[idx*n : (idx+1)*n] {
				mb := &fr.members[i]
				if mb.out || mb.views != nil && mb.views[of[v]] == 0 || mb.points != nil && !mb.points.Get(idx) {
					continue
				}
				if fill {
					fr.occupied.Set(idx, true)
				}
				if rep[v] < 0 {
					rep[v] = q
				} else {
					uf.union(rep[v], q)
				}
			}
		}
	}
}

// badRoots marks the components (by flattened root) holding an
// S-occupied point where ft fails; comp maps a point index to the
// element of roots it belongs to. A point or run S never occupies is
// never joined to anything, so it is its own root and never marked.
func (e *Evaluator) badRoots(fr *frontier, ft *Bits, roots []int32, comp func(idx int) int) []bool {
	bad := make([]bool, len(roots))
	for wi, w := range fr.occupied.w {
		for w &^= ft.w[wi]; w != 0; w &= w - 1 {
			bad[roots[comp(wi<<6+bits.TrailingZeros64(w))]] = true
		}
	}
	return bad
}

// pointComponents returns (caching on the frontier) the flattened root
// table of the C_S reachability classes: points pt, pt' are joined iff
// some i ∈ S(pt) ∩ S(pt') has the same view at both.
func (e *Evaluator) pointComponents(fr *frontier) []int32 {
	if fr.pointRoots != nil {
		return fr.pointRoots
	}
	uf := newUnionFind(e.sys.NumPoints())
	e.unionMembers(uf, fr, false)
	mUnionsPoints.Add(uf.unions)
	fr.pointRoots = uf.flatten()
	if telemetry.Enabled() {
		observeComponentSizes(fr.pointRoots, mReachPointSize)
	}
	return fr.pointRoots
}

// evalC computes C_S f: at S-empty points C_S f is vacuously true; at
// S-occupied points it is the conjunction of f over the point's
// reachability component (which includes the point itself).
func (e *Evaluator) evalC(s NonrigidSet, ft *Bits) *Bits {
	fr := e.frontierFor(s)
	roots := e.pointComponents(fr)
	np := e.sys.NumPoints()
	bad := e.badRoots(fr, ft, roots, func(idx int) int { return idx })
	out := NewBits(np)
	e.parallelBits(np, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			if !bad[roots[idx]] {
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
		tmp.CopyFrom(e.mask(fr, types.ProcID(i)))
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

// runComponents returns (caching on the frontier) the flattened root
// table of the S-□-reachability classes of Corollary 3.3: runs r, r'
// are joined iff some processor i is in S at a point of each with the
// same view at both. Every root is a run index.
func (e *Evaluator) runComponents(fr *frontier) []int32 {
	if fr.runRoots != nil {
		return fr.runRoots
	}
	var unions uint64
	if e.chainable(fr) {
		fr.runRoots, unions = e.chainRoots(fr)
	} else {
		uf := newUnionFind(e.sys.NumRuns())
		e.unionMembers(uf, fr, true)
		fr.runRoots, unions = uf.flatten(), uf.unions
	}
	mUnionsRuns.Add(unions)
	if telemetry.Enabled() {
		observeComponentSizes(fr.runRoots, mReachRunSize)
	}
	return fr.runRoots
}

// chainable reports whether chainRoots can build the set's C□
// components: every processor's membership is a function of its view
// and of a fact constant along a run — a rigid out flag, a views part,
// 𝒩's points part (which every intersection with 𝒩 shares, see
// sameMembers) — and a run's times fit in the bits of a uint64.
func (e *Evaluator) chainable(fr *frontier) bool {
	if e.sys.Horizon >= 64 {
		return false
	}
	nf := e.frontiers[theNonfaulty]
	for i, mb := range fr.members {
		if mb.out || mb.points == nil || mutantChainForeign {
			continue
		}
		if nf == nil || mb.points != nf.members[i].points {
			return false
		}
	}
	return true
}

// chainRoots builds C□_S's components from the interner's view DAG, in
// two passes with no point-level work, and returns them as a root table
// over runs with the number of unions made. A full-information view
// fixes its owner's whole history (Prev), so if i holds one view at time
// m in two runs it holds the same views at every earlier time in both.
//
//   - View pass, in ID order (a view's Prev has a smaller ID): a view is
//     admitted when its owner's membership admits it as a view (not out,
//     and in the views part if there is one). last[v] is the latest
//     admitted view on v's Prev chain, v included, skipping the gaps
//     where the owner is out of S; occ[v] has bit m set iff the chain's
//     time-m view is admitted. Each admitted view is joined to
//     last[Prev(v)].
//   - Run pass, over the horizon row alone: each processor the points
//     part admits in the run (read at the run's first point: 𝒩 is
//     constant along a run) attaches the run to last of its final view,
//     and ORs that view's occ into the times at which S is occupied. The
//     views one run attaches to are joined.
//
// Per processor the admitted views form a forest, and two runs attached
// to one tree both hold their attachment points' lowest common ancestor
// while in S, so they are S-□-reachable; a view no admitted run holds
// hangs off its ancestor and bridges nothing. A run is labelled with
// the smallest run index attached to its component, or its own index if
// it attaches nowhere. DESIGN.md §13 has the argument in full; the
// view-index walk kept in the tests is its oracle.
func (e *Evaluator) chainRoots(fr *frontier) ([]int32, uint64) {
	sys, in := e.sys, e.sys.Interner
	runs, n, h := sys.NumRuns(), sys.Params.N, sys.Horizon
	nv := in.Size()
	of := e.viewsOf(fr)
	uf := newUnionFind(nv)
	last := make([]views.ID, nv)
	occ := make([]uint64, nv)
	for v := views.ID(0); int(v) < nv; v++ {
		l, o := views.NoView, uint64(0)
		prev := in.Prev(v)
		if prev != views.NoView {
			l, o = last[prev], occ[prev]
		}
		// A view past the partition was interned after it (by a
		// simulation over the system's interner), so no point holds it.
		mb := &fr.members[in.Proc(v)]
		if !mb.out && (mb.views == nil || int(v) < len(of) && of[v] >= 0 && mb.views[of[v]] != 0) {
			if mutantChainNoGap {
				l = prev
			}
			if l != views.NoView {
				uf.union(int32(v), int32(l))
			}
			l, o = v, o|1<<uint(in.Time(v))
		}
		last[v], occ[v] = l, o
	}

	fill := fr.occupied == nil
	if fill {
		fr.occupied = NewBits(sys.NumPoints())
	}
	vs, stride := sys.Table().Views, h+1
	roots := make([]int32, runs) // the run's first attached view, until labelled
	for r := range roots {
		base := r * stride
		first := views.NoView
		var times uint64
		for i, v := range vs[(base+h)*n : (base+h+1)*n] {
			if pts := fr.members[i].points; pts != nil && !pts.Get(base) || last[v] == views.NoView {
				continue
			}
			if first == views.NoView {
				first = last[v]
			} else {
				uf.union(int32(first), int32(last[v]))
			}
			times |= occ[v]
			if mutantChainOccupied && last[v] == v {
				times = 1<<uint(stride) - 1
			}
		}
		roots[r] = int32(first)
		for ; fill && times != 0; times &= times - 1 {
			fr.occupied.Set(base+bits.TrailingZeros64(times), true)
		}
	}

	label := make([]int32, nv)
	for v := range label {
		label[v] = -1
	}
	for r, first := range roots {
		if first < 0 {
			roots[r] = int32(r)
			continue
		}
		root := uf.find(first)
		if label[root] < 0 {
			label[root] = int32(r)
		}
		roots[r] = label[root]
	}
	return roots, uf.unions
}

// evalCBox computes C□_S f by Corollary 3.3: C□_S f holds at a point
// of run r iff f holds at every S-occupied point of every run
// S-□-reachable from r. Runs with no S-occupied points reach nothing,
// so C□_S f holds there vacuously. The value is constant per run
// (Lemma 3.4(g)).
func (e *Evaluator) evalCBox(s NonrigidSet, ft *Bits) *Bits {
	fr := e.frontierFor(s)
	roots := e.runComponents(fr)
	stride := e.sys.Horizon + 1
	bad := e.badRoots(fr, ft, roots, func(idx int) int { return idx / stride })
	out := NewBits(e.sys.NumPoints())
	e.parallelRuns(e.sys.NumRuns(), func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			if !bad[roots[r]] {
				out.SetRange(r*stride, (r+1)*stride)
			}
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
	uf.unions++
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
