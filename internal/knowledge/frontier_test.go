package knowledge

import (
	"fmt"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

func frontierTestSystem(t *testing.T) *system.System {
	t.Helper()
	sys, err := system.Enumerate(types.Params{N: 3, T: 1}, failures.Omission, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFrontierSharedIffEqualContent pins the frontier cache's sharing
// contract: two sets share a frontier exactly when their factored
// memberships are equal part by part. Same name with different content
// never shares; equal content under different names, constructors or
// predicates does (𝒩 and 𝒩∧all, two separately built Const sets, two
// FromViews sets whose predicates agree on every view); and a views
// part alone never matches the same views part ANDed with 𝒩. The build
// counter rises once per group. Every operator that consumes a
// frontier is checked against a fresh evaluator that never saw the
// other sets.
func TestFrontierSharedIffEqualContent(t *testing.T) {
	sys := frontierTestSystem(t)
	all := types.FullSet(sys.Params.N)
	p01 := types.ProcSet(0).Add(0).Add(1)
	even := func(in *views.Interner, id views.ID) bool { return in.Time(id)%2 == 0 }
	evenToo := func(in *views.Interner, id views.ID) bool { return in.Time(id) != 1 } // h = 2
	sets := []struct {
		s     NonrigidSet
		group int
	}{
		{Nonfaulty(), 0},
		{Const("S", all), 1},
		{Const("S", p01), 2}, // same name as above, different content
		{Const("S", p01), 2}, // same name and content, distinct value
		{Const("solo", types.ProcSet(0).Add(2)), 3},
		{Intersect(Nonfaulty(), Const("S", p01)), 4},
		{Intersect(Nonfaulty(), Const("T", all)), 0}, // 𝒩 under another constructor
		{FromViews("even", even), 5},
		{FromViews("even'", evenToo), 5}, // another predicate, equal class tables
		{Intersect(Nonfaulty(), FromViews("even", even)), 6},
	}
	groups := 7

	build := func(s NonrigidSet) []Formula {
		return []Formula{
			B(0, s, Atom("init1", func(sys *system.System, pt system.Point) bool {
				return sys.RunOf(pt).Initial(1) == types.One
			})),
			E(s, True()),
			C(s, Atom("init0", func(sys *system.System, pt system.Point) bool {
				return sys.RunOf(pt).Initial(0) == types.One
			})),
			CBox(s, Atom("init0b", func(sys *system.System, pt system.Point) bool {
				return sys.RunOf(pt).Initial(0) == types.One
			})),
			CDiamond(s, True()),
		}
	}

	// The frontier cache is keyed by contentKey, the exact bytes of the
	// canonical factored membership: the digest that decides sharing.
	t.Run("digest", func(t *testing.T) {
		// One evaluator sees every set back to back — the scenario where a
		// wrongly shared frontier would corrupt answers. Its tables must
		// match a fresh evaluator that computes each set in isolation.
		shared := NewEvaluator(sys)
		for si, c := range sets {
			for fi, f := range build(c.s) {
				if got, want := shared.Eval(f), NewEvaluator(sys).Eval(f); !got.Equal(want) {
					t.Errorf("set %d formula %d (%s): shared evaluator disagrees with fresh one", si, fi, f)
				}
			}
		}
		for i, a := range sets {
			for j, b := range sets {
				if same := shared.frontiers[a.s] == shared.frontiers[b.s]; same != (a.group == b.group) {
					t.Errorf("sets %d (%s) and %d (%s): shared frontier %v, want %v", i, a.s.Name(), j, b.s.Name(), same, a.group == b.group)
				}
			}
		}
		for s, fr := range shared.frontiers {
			for i := 0; i < sys.Params.N; i++ {
				mask := shared.mask(fr, types.ProcID(i))
				for idx := 0; idx < sys.NumPoints(); idx++ {
					want := s.Members(sys, sys.PointAt(idx)).Contains(types.ProcID(i))
					if mask.Get(idx) != want {
						t.Fatalf("set %q mask[%d] bit %d = %v, want %v", s.Name(), i, idx, mask.Get(idx), want)
					}
				}
			}
		}
	})
	// The build counter shows the sharing: an evaluator that meets every
	// set builds one frontier per group.
	e := NewEvaluator(sys)
	before := mFrontierBuilds.Value()
	for _, c := range sets {
		e.Eval(CBox(c.s, True()))
	}
	if got := mFrontierBuilds.Value() - before; got != uint64(groups) {
		t.Errorf("eba_knowledge_frontier_builds_total rose by %d over %d sets of %d distinct contents", got, len(sets), groups)
	}
}

// TestFrontierConcurrentEvaluators drives independent evaluators over
// one shared system from many goroutines, mixing sets with colliding
// names. Run under -race this proves per-evaluator frontier caches
// share nothing mutable (the system's interner memos are the only
// shared state, and those are published read-only or mutex-guarded).
func TestFrontierConcurrentEvaluators(t *testing.T) {
	sys := frontierTestSystem(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := Const("S", types.ProcSet(0).Add(types.ProcID(g%sys.Params.N)))
			ev := NewEvaluator(sys)
			ev.SetParallelism(2)
			tbl := ev.Eval(E(s, True()))
			// E_S true is true everywhere (vacuous or trivially known).
			if !tbl.All() {
				errs <- fmt.Sprintf("goroutine %d: E_S true not valid", g)
			}
			ref := NewEvaluator(sys)
			ref.SetParallelism(1)
			if !ref.Eval(C(Nonfaulty(), True())).Equal(ev.Eval(C(Nonfaulty(), True()))) {
				errs <- fmt.Sprintf("goroutine %d: C tables diverge across evaluators", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
