package views

import (
	"fmt"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// refInterner is hash-consing as its definition reads: a map from a
// view's rendered content (owner, initial value, children) to its ID,
// IDs handed out in first-encounter order.
type refInterner struct {
	ids   map[string]ID
	nodes []node
}

func (r *refInterner) intern(nd node) ID {
	key := fmt.Sprint(nd.proc, nd.initial, nd.from)
	if id, ok := r.ids[key]; ok {
		return id
	}
	id := ID(len(r.nodes))
	r.ids[key] = id
	r.nodes = append(r.nodes, nd)
	return id
}

// buildRun is BuildRun over the reference interner.
func (r *refInterner) buildRun(cfg types.Config, pat *failures.Pattern) [][]ID {
	n, h := cfg.N(), pat.Horizon()
	out := make([][]ID, h+1)
	out[0] = make([]ID, n)
	for p := range out[0] {
		out[0][p] = r.intern(node{proc: types.ProcID(p), initial: cfg[p]})
	}
	for m := 1; m <= h; m++ {
		out[m] = make([]ID, n)
		for p := 0; p < n; p++ {
			from := make([]ID, n)
			for j := range from {
				from[j] = NoView
				if j == p || pat.Delivers(types.ProcID(j), types.Round(m), types.ProcID(p)) {
					from[j] = out[m-1][j]
				}
			}
			out[m][p] = r.intern(node{proc: types.ProcID(p), time: types.Round(m), initial: cfg[p], from: from})
		}
	}
	return out
}

// n3Patterns are the failure patterns of the four n=3 keys the
// benchmark and the ebacheck goldens use, one list per failure mode.
func n3Patterns(t *testing.T) map[string][]*failures.Pattern {
	t.Helper()
	out := make(map[string][]*failures.Pattern)
	for _, k := range []struct {
		mode failures.Mode
		h    int
		enum func(n, t, h int) ([]*failures.Pattern, error)
	}{
		{failures.Crash, 3, failures.EnumCrash},
		{failures.Omission, 3, func(n, t, h int) ([]*failures.Pattern, error) { return failures.EnumOmission(n, t, h, 0) }},
		{failures.ReceivingOmission, 2, func(n, t, h int) ([]*failures.Pattern, error) { return failures.EnumReceiving(n, t, h, 0) }},
		{failures.GeneralOmission, 2, func(n, t, h int) ([]*failures.Pattern, error) { return failures.EnumGeneral(n, t, h, 0) }},
	} {
		pats, err := k.enum(3, 1, k.h)
		if err != nil {
			t.Fatal(err)
		}
		out[k.mode.String()] = pats
	}
	return out
}

// buildAll interns every run over the patterns into in, in the
// canonical order (pattern-major, configuration-minor).
func buildAll(in *Interner, pats []*failures.Pattern) [][][]ID {
	var runs [][][]ID
	for _, pat := range pats {
		for cfg := uint64(0); cfg < 1<<uint(in.N()); cfg++ {
			runs = append(runs, BuildRun(in, types.ConfigFromBits(in.N(), cfg), pat))
		}
	}
	return runs
}

// TestInternerMatchesReference: the open-addressed table assigns every
// view of every run of the n=3 keys, in all four modes, the ID the
// string-keyed reference does, and holds the same nodes.
func TestInternerMatchesReference(t *testing.T) {
	for mode, pats := range n3Patterns(t) {
		t.Run(mode, func(t *testing.T) {
			in := NewInterner(3)
			ref := &refInterner{ids: make(map[string]ID)}
			for ri, run := range buildAll(in, pats) {
				want := ref.buildRun(types.ConfigFromBits(3, uint64(ri%8)), pats[ri/8])
				for m := range run {
					for p := range run[m] {
						if run[m][p] != want[m][p] {
							t.Fatalf("run %d time %d proc %d: ID %d, reference %d", ri, m, p, run[m][p], want[m][p])
						}
					}
				}
			}
			if in.Size() != len(ref.nodes) {
				t.Fatalf("%d views, reference %d", in.Size(), len(ref.nodes))
			}
			for id, nd := range ref.nodes {
				if !in.nodes[id].is(nd.proc, nd.initial, nd.from) || in.nodes[id].time != nd.time {
					t.Fatalf("view %d is %s, reference %v", id, in.String(ID(id)), nd)
				}
			}
		})
	}
}

// TestInternerDedupsUnderCollidingHash: with every view hashed to the
// same slot, interning still assigns the IDs it does with the real
// hash, so equality on the node's fields, not the hash, decides.
func TestInternerDedupsUnderCollidingHash(t *testing.T) {
	pats, err := failures.EnumCrash(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := buildAll(NewInterner(3), pats)
	hash := nodeHash
	defer func() { nodeHash = hash }()
	nodeHash = func(types.ProcID, types.Value, []ID) uint64 { return 0 }
	in := NewInterner(3)
	if got := buildAll(in, pats); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("colliding hash changed the IDs")
	}
	size := in.Size()
	if again := buildAll(in, pats); fmt.Sprint(again) != fmt.Sprint(want) || in.Size() != size {
		t.Fatal("re-interning under a colliding hash minted fresh views")
	}
}

// TestRestoredInternerReinternsOldIDs: after a snapshot restore, Leaf
// and Extend on every existing view return its old ID (the lazily built
// table holds every node) and mint nothing.
func TestRestoredInternerReinternsOldIDs(t *testing.T) {
	for mode, pats := range n3Patterns(t) {
		t.Run(mode, func(t *testing.T) {
			built := NewInterner(3)
			buildAll(built, pats)
			in, err := UnmarshalInterner(MarshalInterner(built))
			if err != nil {
				t.Fatal(err)
			}
			if in.table != nil {
				t.Fatal("the restore built a hash-cons table")
			}
			for id := ID(0); int(id) < in.Size(); id++ {
				nd := in.nodes[id]
				var got ID
				if nd.from == nil {
					got = in.Leaf(nd.proc, nd.initial)
				} else {
					got = in.Extend(nd.proc, nd.from[nd.proc], append([]ID(nil), nd.from...))
				}
				if got != id {
					t.Fatalf("view %d (%s) re-interned as %d", id, in.String(id), got)
				}
			}
			if in.Size() != built.Size() {
				t.Fatalf("re-interning grew the restored interner from %d to %d views", built.Size(), in.Size())
			}
		})
	}
}

// refKnownValues is KnownValues as its definition reads: the owner's
// own value, and whatever any received view records, recursively.
func refKnownValues(in *Interner, id ID) []types.Value {
	nd := in.node(id)
	kv := make([]types.Value, in.n)
	for i := range kv {
		kv[i] = types.Unset
	}
	kv[nd.proc] = nd.initial
	for _, ch := range nd.from {
		if ch == NoView {
			continue
		}
		for q, v := range refKnownValues(in, ch) {
			if v != types.Unset {
				kv[q] = v
			}
		}
	}
	return kv
}

// TestKnownValuesMatchDefinition: the known-value sets filled at intern
// time answer KnownValues, Knows and KnowsAll as the recursive
// definition does, at every view of the n=3 keys, built and restored.
func TestKnownValuesMatchDefinition(t *testing.T) {
	for mode, pats := range n3Patterns(t) {
		t.Run(mode, func(t *testing.T) {
			built := NewInterner(3)
			buildAll(built, pats)
			restored, err := UnmarshalInterner(MarshalInterner(built))
			if err != nil {
				t.Fatal(err)
			}
			for id := ID(0); int(id) < built.Size(); id++ {
				want := refKnownValues(built, id)
				for _, in := range []*Interner{built, restored} {
					if got := in.KnownValues(id); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("view %d: KnownValues %v, definition %v", id, got, want)
					}
					for _, v := range []types.Value{types.Zero, types.One} {
						some, all := false, true
						for _, u := range want {
							some = some || u == v
							all = all && u == v
						}
						if in.Knows(id, v) != some || in.KnowsAll(id, v) != all {
							t.Fatalf("view %d value %v: Knows %v KnowsAll %v, definition %v %v",
								id, v, in.Knows(id, v), in.KnowsAll(id, v), some, all)
						}
					}
				}
			}
		})
	}
}
