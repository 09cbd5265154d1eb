// Package views implements the local states of processors running a
// full-information protocol (FIP): recursive message-history trees,
// hash-consed in an Interner so that state identity — the
// indistinguishability relation underlying all knowledge operators —
// is a single integer comparison.
//
// Following Section 2.4 of Halpern, Moses, and Waarts (PODC 1990), the
// state of a processor in a full-information protocol consists of the
// processor's name, initial state, message history, and time. In each
// round every processor sends its current state to every other
// processor. A view at time m is therefore the processor's identity
// and initial value plus, for each round k <= m and each sender j,
// either j's view at time k-1 (if j's round-k message arrived) or a
// marker that it did not. Views of different protocols at
// corresponding points coincide (Proposition 2.2), which is why one
// enumeration of views serves every decision rule.
//
// The package also provides the syntactic analyses the paper's
// protocols test on states: known initial values, evidence of
// faultiness, the heard-from set, and 0-chain acceptance (the ∃0*
// machinery of Section 6.2).
package views

import (
	"fmt"
	"strings"
	"sync"

	"github.com/eventual-agreement/eba/internal/types"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// Telemetry handles for the hash-cons table, summed over every live
// interner (one per process in the network runtime).
var (
	mInternHits   = telemetry.Default().Counter("eba_views_intern_total", telemetry.L("result", "hit"))
	mInternMisses = telemetry.Default().Counter("eba_views_intern_total", telemetry.L("result", "miss"))
)

// ID is an interned view identifier. Equal IDs from the same Interner
// denote identical views; this is exactly the "same local state"
// relation r_i(m) = r'_i(m') of the knowledge semantics.
type ID int32

// NoView marks an absent message: the sender's round-k message did not
// arrive.
const NoView ID = -1

// node is one interned view.
type node struct {
	proc    types.ProcID
	time    types.Round
	initial types.Value
	// from[j] is the view of processor j at time-1 carried by j's
	// round-(time) message, or NoView if the message did not arrive.
	// from[proc] is the processor's own previous view (always
	// present: a processor remembers its own state). nil for leaves
	// (time 0).
	from []ID
}

// Interner hash-conses views for an n-processor system and memoizes
// the syntactic analyses. The views form a DAG whose children always
// have smaller IDs than their parents (Extend requires its children to
// exist), and everything the interner keeps per view is indexed by ID.
// Interning (Leaf, Extend, Unmarshal) is not safe for concurrent use;
// each enumeration or simulation owns its Interner (or guards it). Once
// interning is complete the structure is read-mostly: the known-value
// tests (Knows, KnowsAll, KnownValues) read masks filled at intern
// time, and the memoized analyses (FaultEvidence, AcceptsZeroAt,
// BelievesExistsZeroStar, ...) take an internal lock around their
// lazily-filled tables, so any number of goroutines may query a
// fully-built interner concurrently — the contract the epistemic query
// service relies on.
type Interner struct {
	n     int
	nodes []node
	// known[id][v] is the set of processors whose initial value v view
	// id records: a leaf's own bit, or the OR of its children's sets.
	// Every insert and UnmarshalInterner appends it, so the known-value
	// tests need neither a memo nor a lock.
	known [][2]types.ProcSet
	// table is the open-addressed hash-cons table: each slot holds a
	// view's ID+1, or 0 when empty, probed linearly from the slot
	// nodeHash picks. Its length is a power of two and it is never more
	// than half full. It is nil after a snapshot restore
	// (UnmarshalInterner): restored systems are queried, not extended,
	// so the table is rebuilt by the first intern (ensureIndex).
	table []int32
	// children is the scratch child array Extend assembles a view in
	// before looking it up, so the hit path allocates nothing.
	children []ID
	// fromArena slab-allocates the nodes' child arrays: enumeration
	// interns 10^5–10^6 nodes one Extend at a time, and carving their
	// from-slices out of shared blocks keeps the allocator and the GC
	// scanner off the hot path. Blocks are never freed individually —
	// an arena lives exactly as long as its Interner.
	fromArena []ID

	// memoMu guards the memo tables below (indexed by ID). Interning
	// never touches them: the analysis that first needs an entry past
	// their end grows all five to the node count (growMemo), so a
	// snapshot restore or a build that nobody analyses pays nothing for
	// them. memoMu deliberately does not guard nodes, known or table:
	// interning and concurrent analysis must not overlap.
	//
	// The lock discipline is deliberately narrow: lookups take the
	// read lock for a single slice access, computation runs with no
	// lock held, and each finished entry is published under a brief
	// write lock. Two goroutines racing on a cold entry may therefore
	// both compute it — the analyses are pure functions of the
	// immutable node table, so the duplicates are identical and
	// last-writer-wins is safe — but concurrent evaluators never
	// serialize on one another's recursions, which is what lets the
	// parallel knowledge evaluator scale across cores.
	memoMu     sync.RWMutex
	faultEv    []types.ProcSet
	faultEvOK  []bool
	acceptSets [][]types.ProcSet
	acceptOK   []bool
	believes0s []int8 // 0 unknown, 1 false, 2 true
}

// NewInterner creates an Interner for an n-processor system.
func NewInterner(n int) *Interner {
	if n < 2 || n > types.MaxProcs {
		panic(fmt.Sprintf("views: NewInterner(%d) out of range", n))
	}
	return &Interner{n: n}
}

// N returns the system size the interner was built for.
func (in *Interner) N() int { return in.n }

// Size returns the number of distinct interned views.
func (in *Interner) Size() int { return len(in.nodes) }

// nodeHash picks a view's first slot in the hash-cons table from its
// owner, its owner's initial value and its children (nil for a leaf).
// It only narrows the search: equality on the node's own fields
// decides. It is a variable so a test can make every view collide.
var nodeHash = func(p types.ProcID, v types.Value, from []ID) uint64 {
	h := uint64(p)<<1 | uint64(v)&1
	for _, c := range from {
		h = (h ^ uint64(uint32(c+1))) * 0x9E3779B97F4A7C15
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// is reports whether the node is the view of p, starting with v, with
// the given children (nil for a leaf).
func (nd *node) is(p types.ProcID, v types.Value, from []ID) bool {
	if nd.proc != p || nd.initial != v || (nd.from == nil) != (from == nil) {
		return false
	}
	for j, c := range from {
		if nd.from[j] != c {
			return false
		}
	}
	return true
}

// find returns the ID of the interned view of p, starting with v, with
// the given children — or NoView and the empty slot a new one goes in.
func (in *Interner) find(p types.ProcID, v types.Value, from []ID) (ID, int) {
	mask := len(in.table) - 1
	for s := int(nodeHash(p, v, from) & uint64(mask)); ; s = (s + 1) & mask {
		e := in.table[s]
		if e == 0 {
			return NoView, s
		}
		if in.nodes[e-1].is(p, v, from) {
			return ID(e - 1), s
		}
	}
}

// minTable is the smallest hash-cons table, in slots.
const minTable = 64

// ensureIndex builds the hash-cons table if there is none: on the first
// intern into a new interner, and after a snapshot restore, whose
// interner is usually only queried, so the table's cost is paid by the
// first caller that interns.
func (in *Interner) ensureIndex() {
	if in.table != nil {
		return
	}
	size := minTable
	for size < 2*len(in.nodes) {
		size *= 2
	}
	in.rehash(size)
}

// rehash re-places every view, in ID order, in a fresh table of the
// given power-of-two size.
func (in *Interner) rehash(size int) {
	in.table = make([]int32, size)
	mask := size - 1
	for i := range in.nodes {
		nd := &in.nodes[i]
		s := int(nodeHash(nd.proc, nd.initial, nd.from) & uint64(mask))
		for in.table[s] != 0 {
			s = (s + 1) & mask
		}
		in.table[s] = int32(i) + 1
	}
}

// The child-array slabs start at minArenaBlock IDs and double up to
// fromArenaBlock, so an interner of a few thousand views (a small
// system, one process of the network runtime) does not reserve a
// quarter-megabyte slab it never fills.
const (
	minArenaBlock  = 1 << 10
	fromArenaBlock = 1 << 16
)

// allocFrom carves an n-ID child array out of the arena.
func (in *Interner) allocFrom(n int) []ID {
	if len(in.fromArena)+n > cap(in.fromArena) {
		block := min(max(2*cap(in.fromArena), minArenaBlock), fromArenaBlock)
		if n > block {
			block = n
		}
		in.fromArena = make([]ID, 0, block)
	}
	lo := len(in.fromArena)
	in.fromArena = in.fromArena[:lo+n]
	return in.fromArena[lo : lo+n : lo+n]
}

// knownOf returns a node's known-value sets from its children's, which
// are interned before it: a leaf records its own value only.
func (in *Interner) knownOf(nd *node) [2]types.ProcSet {
	var k [2]types.ProcSet
	if nd.from == nil {
		k[nd.initial] = types.Singleton(nd.proc)
		return k
	}
	for _, c := range nd.from {
		if c != NoView {
			k[0] |= in.known[c][0]
			k[1] |= in.known[c][1]
		}
	}
	return k
}

// insert records a fresh node in the table slot find returned for it,
// growing the table when it passes half full.
func (in *Interner) insert(nd node, slot int) ID {
	mInternMisses.Inc()
	id := ID(len(in.nodes))
	in.nodes = append(in.nodes, nd)
	in.known = append(in.known, in.knownOf(&nd))
	in.table[slot] = int32(id) + 1
	if 2*len(in.nodes) > len(in.table) {
		in.rehash(2 * len(in.table))
	}
	return id
}

// Leaf interns the time-0 view of processor p with initial value v.
func (in *Interner) Leaf(p types.ProcID, v types.Value) ID {
	if int(p) < 0 || int(p) >= in.n {
		panic(fmt.Sprintf("views: Leaf proc %d out of range", p))
	}
	if !v.Valid() {
		panic("views: Leaf with invalid initial value")
	}
	in.ensureIndex()
	id, slot := in.find(p, v, nil)
	if id != NoView {
		mInternHits.Inc()
		return id
	}
	return in.insert(node{proc: p, time: 0, initial: v}, slot)
}

// Extend interns the time-(m+1) view of processor p whose time-m view
// is own, given the received round-(m+1) messages: received[j] must be
// the view of processor j at time m, or NoView if j's message did not
// arrive. received[p] is ignored (a processor keeps its own state).
func (in *Interner) Extend(p types.ProcID, own ID, received []ID) ID {
	if len(received) != in.n {
		panic(fmt.Sprintf("views: Extend received has length %d, want %d", len(received), in.n))
	}
	ownNd := in.node(own)
	if ownNd.proc != p {
		panic(fmt.Sprintf("views: Extend own view belongs to %d, not %d", ownNd.proc, p))
	}
	in.ensureIndex()
	// Assemble the children in scratch first: the common case is a hit,
	// which must not allocate a child array.
	if in.children == nil {
		in.children = make([]ID, in.n)
	}
	ch := in.children
	for j := 0; j < in.n; j++ {
		v := received[j]
		if types.ProcID(j) == p {
			v = own
		}
		if v != NoView {
			c := in.node(v)
			if c.proc != types.ProcID(j) {
				panic(fmt.Sprintf("views: Extend received[%d] belongs to %d", j, c.proc))
			}
			if c.time != ownNd.time {
				panic(fmt.Sprintf("views: Extend received[%d] at time %d, want %d", j, c.time, ownNd.time))
			}
		}
		ch[j] = v
	}
	id, slot := in.find(p, ownNd.initial, ch)
	if id != NoView {
		mInternHits.Inc()
		return id
	}
	from := in.allocFrom(in.n)
	copy(from, ch)
	return in.insert(node{proc: p, time: ownNd.time + 1, initial: ownNd.initial, from: from}, slot)
}

func (in *Interner) node(id ID) *node { return &in.nodes[in.checked(id)] }

// checked returns id, panicking with its value if it names no view.
func (in *Interner) checked(id ID) ID {
	if id < 0 || int(id) >= len(in.nodes) {
		panic(fmt.Sprintf("views: invalid view ID %d", id))
	}
	return id
}

// Proc returns the owner of the view.
func (in *Interner) Proc(id ID) types.ProcID { return in.node(id).proc }

// Time returns the time of the view.
func (in *Interner) Time(id ID) types.Round { return in.node(id).time }

// Initial returns the owner's initial value.
func (in *Interner) Initial(id ID) types.Value { return in.node(id).initial }

// Stamp packs a view's owner, its time and its owner's initial value
// into one comparable word.
type Stamp uint64

// initialStamp is set in the stamp of a view whose owner started with
// types.One (nodes only ever hold Zero or One).
const initialStamp Stamp = 1 << 6

// StampOf returns the stamp of a view held by p at time m whose owner
// started with v.
func StampOf(p types.ProcID, m types.Round, v types.Value) Stamp {
	return Stamp(m)<<7 | Stamp(v)<<6 | Stamp(p)
}

// WithInitial returns the stamp with the initial value replaced by v.
func (s Stamp) WithInitial(v types.Value) Stamp { return s&^initialStamp | Stamp(v)<<6 }

// Stamps returns every view's stamp, indexed by ID, in a fresh table:
// a caller that checks owner, time and initial value of millions of
// IDs reads one dense word per ID instead of chasing three fields of a
// node six times the size.
func (in *Interner) Stamps() []Stamp {
	out := make([]Stamp, len(in.nodes))
	for i := range in.nodes {
		nd := &in.nodes[i]
		out[i] = StampOf(nd.proc, nd.time, nd.initial)
	}
	return out
}

// From returns the view carried by j's message in the view's last
// round (NoView if absent), or NoView for a leaf.
func (in *Interner) From(id ID, j types.ProcID) ID {
	nd := in.node(id)
	if nd.from == nil {
		return NoView
	}
	return nd.from[j]
}

// Prev returns the owner's own previous view, or NoView for a leaf.
func (in *Interner) Prev(id ID) ID { return in.From(id, in.node(id).proc) }

// HeardFrom returns the set of other processors whose message arrived
// in the view's last round. For a leaf it is empty.
func (in *Interner) HeardFrom(id ID) types.ProcSet {
	nd := in.node(id)
	var s types.ProcSet
	if nd.from == nil {
		return s
	}
	for j := 0; j < in.n; j++ {
		if types.ProcID(j) != nd.proc && nd.from[j] != NoView {
			s = s.Add(types.ProcID(j))
		}
	}
	return s
}

// KnownValues returns, for each processor j, the initial value of j if
// it is recorded anywhere in the view, else Unset, in a fresh slice.
func (in *Interner) KnownValues(id ID) []types.Value {
	k := in.known[in.checked(id)]
	kv := make([]types.Value, in.n)
	for j := range kv {
		switch p := types.ProcID(j); {
		case k[types.Zero].Contains(p):
			kv[j] = types.Zero
		case k[types.One].Contains(p):
			kv[j] = types.One
		default:
			kv[j] = types.Unset
		}
	}
	return kv
}

// knownSet returns the processors whose initial value v the view
// records. Only Zero and One are ever recorded.
func (in *Interner) knownSet(id ID, v types.Value) types.ProcSet {
	k := &in.known[in.checked(id)]
	if !v.Valid() {
		return types.EmptySet
	}
	return k[v]
}

// Knows reports whether the view records some processor having initial
// value v. Knows(id, Zero) is the syntactic test for K_i ∃0 in a
// full-information protocol.
func (in *Interner) Knows(id ID, v types.Value) bool { return !in.knownSet(id, v).Empty() }

// KnowsAll reports whether the view records the initial value v for
// every processor (the "knows all initial values are v" test of the
// P0opt decision rule, Section 2.2). A view records at most one value
// per processor, so that is v's set being everyone.
func (in *Interner) KnowsAll(id ID, v types.Value) bool {
	return in.knownSet(id, v) == types.FullSet(in.n)
}

// growMemo extends the memo tables to cover every interned view. The
// caller holds memoMu for writing and is about to publish an entry
// past their end; growth is amortized, so an interner that alternates
// interning and analysis (the runtimes' per-process ones) does not
// copy the tables once per view.
func (in *Interner) growMemo() {
	add := len(in.nodes) - len(in.faultEv)
	in.faultEv = append(in.faultEv, make([]types.ProcSet, add)...)
	in.faultEvOK = append(in.faultEvOK, make([]bool, add)...)
	in.acceptSets = append(in.acceptSets, make([][]types.ProcSet, add)...)
	in.acceptOK = append(in.acceptOK, make([]bool, add)...)
	in.believes0s = append(in.believes0s, make([]int8, add)...)
}

// FaultEvidence returns the set of processors the view proves faulty:
// j is included exactly if somewhere in the view some processor failed
// to receive j's required round-k message (k >= 1). In both the crash
// and the sending-omission mode this syntactic evidence coincides with
// the knowledge-theoretic B^N_i(j ∉ 𝒩): an omission pins the blame on
// the sender, and without recorded omissions a run in which j is
// nonfaulty is consistent with the view. (The equivalence is checked
// against the semantic evaluator in the knowledge package's tests.)
func (in *Interner) FaultEvidence(id ID) types.ProcSet {
	var ok bool
	var s types.ProcSet
	in.memoMu.RLock()
	if int(id) < len(in.faultEvOK) {
		ok, s = in.faultEvOK[id], in.faultEv[id]
	}
	in.memoMu.RUnlock()
	if ok {
		return s
	}
	return in.computeFaultEvidence(id)
}

// computeFaultEvidence fills the FaultEvidence memo for a cold entry;
// no lock is held across the recursion.
func (in *Interner) computeFaultEvidence(id ID) types.ProcSet {
	nd := in.node(id)
	var s types.ProcSet
	if nd.from != nil {
		for j := 0; j < in.n; j++ {
			ch := nd.from[j]
			if ch == NoView {
				s = s.Add(types.ProcID(j))
				continue
			}
			s = s.Union(in.FaultEvidence(ch))
		}
	}
	in.memoMu.Lock()
	if int(id) >= len(in.faultEvOK) {
		in.growMemo()
	}
	in.faultEv[id] = s
	in.faultEvOK[id] = true
	in.memoMu.Unlock()
	return s
}

// acceptances returns the chain sets S with which the view's owner
// accepts 0 at exactly the view's time (Section 6.2). Acceptance
// formalizes the 0-chain: a processor with initial value 0 accepts at
// time 0 with chain {itself}; p accepts at time u >= 1 with chain
// S ∪ {p} if it received, in round u, the time-(u-1) view of some
// processor j ∉ {p} that accepted at exactly time u-1 with chain S,
// p ∉ S, and p does not know j to be faulty at time u. The paper
// indexes a chain of m processors at time m ("i_{k+1} received a
// message from i_k at round k"); acceptance at time u corresponds to
// being the (u+1)-st element, the alignment used in the proof of
// Proposition 6.4.
func (in *Interner) acceptances(id ID) []types.ProcSet {
	var ok bool
	var out []types.ProcSet
	in.memoMu.RLock()
	if int(id) < len(in.acceptOK) {
		ok, out = in.acceptOK[id], in.acceptSets[id]
	}
	in.memoMu.RUnlock()
	if ok {
		return out
	}
	return in.computeAcceptances(id)
}

// computeAcceptances fills the acceptance memo for a cold entry; no
// lock is held across the recursion.
func (in *Interner) computeAcceptances(id ID) []types.ProcSet {
	nd := in.node(id)
	var out []types.ProcSet
	if nd.time == 0 {
		if nd.initial == types.Zero {
			out = append(out, types.Singleton(nd.proc))
		}
	} else if ev := in.FaultEvidence(id); !ev.Contains(nd.proc) {
		// If the owner knows itself faulty, B^N is vacuous, so the
		// chain condition ¬B^N_p(j ∉ 𝒩) fails for every sender and no
		// hop extends here. (A nonfaulty processor never reaches this
		// state: no omission evidence against it can exist.)
		for j := 0; j < in.n; j++ {
			jp := types.ProcID(j)
			if jp == nd.proc || nd.from[j] == NoView || ev.Contains(jp) {
				continue
			}
			for _, s := range in.acceptances(nd.from[j]) {
				if s.Contains(nd.proc) {
					continue
				}
				ns := s.Add(nd.proc)
				dup := false
				for _, o := range out {
					if o == ns {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, ns)
				}
			}
		}
	}
	in.memoMu.Lock()
	if int(id) >= len(in.acceptOK) {
		in.growMemo()
	}
	in.acceptSets[id] = out
	in.acceptOK[id] = true
	in.memoMu.Unlock()
	return out
}

// AcceptsZeroAt reports whether the view's owner accepts 0 at exactly
// the view's time.
func (in *Interner) AcceptsZeroAt(id ID) bool {
	return len(in.acceptances(id)) > 0
}

// BelievesExistsZeroStar reports whether the view's owner has accepted
// 0 at or before the view's time. This is the syntactic test for
// B^N_i ∃0* (the decision set 𝒵⁰ of Section 6.2): if the owner is
// nonfaulty, its acceptance chain is a 0-chain, so ∃0* holds; and
// conversely a belief in ∃0* can only arise from being a chain
// endpoint (relayed stale chains end in processors the owner cannot
// know to be nonfaulty).
func (in *Interner) BelievesExistsZeroStar(id ID) bool {
	var m int8
	in.memoMu.RLock()
	if int(id) < len(in.believes0s) {
		m = in.believes0s[id]
	}
	in.memoMu.RUnlock()
	if m != 0 {
		return m == 2
	}
	return in.computeBelievesExistsZeroStar(id)
}

// computeBelievesExistsZeroStar fills the ∃0* memo for a cold entry;
// no lock is held across the recursion.
func (in *Interner) computeBelievesExistsZeroStar(id ID) bool {
	res := len(in.acceptances(id)) > 0
	if !res {
		if prev := in.Prev(id); prev != NoView {
			res = in.BelievesExistsZeroStar(prev)
		}
	}
	mark := int8(1)
	if res {
		mark = 2
	}
	in.memoMu.Lock()
	if int(id) >= len(in.believes0s) {
		in.growMemo()
	}
	in.believes0s[id] = mark
	in.memoMu.Unlock()
	return res
}

// String renders a view as a nested term, for debugging and traces.
func (in *Interner) String(id ID) string {
	if id == NoView {
		return "×"
	}
	var b strings.Builder
	in.render(id, &b)
	return b.String()
}

func (in *Interner) render(id ID, b *strings.Builder) {
	nd := in.node(id)
	if nd.from == nil {
		fmt.Fprintf(b, "p%d=%s", nd.proc, nd.initial)
		return
	}
	fmt.Fprintf(b, "p%d@%d⟨", nd.proc, nd.time)
	first := true
	for j := 0; j < in.n; j++ {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		if nd.from[j] == NoView {
			fmt.Fprintf(b, "%d:×", j)
			continue
		}
		fmt.Fprintf(b, "%d:", j)
		in.render(nd.from[j], b)
	}
	b.WriteRune('⟩')
}
