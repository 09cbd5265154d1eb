package knowledge

import (
	"fmt"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

func frontierTestSystem(t *testing.T) *system.System {
	t.Helper()
	sys, err := system.Enumerate(types.Params{N: 3, T: 1}, failures.Omission, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFrontierNeverSharedAcrossSets pins the frontier cache's identity
// contract: cached S-reachability structures (membership masks,
// occupied classes, point/run components) belong to one NonrigidSet
// value and are never reused for another — not even for a different
// set with the same Name, nor for a structurally equal set constructed
// separately. Every operator that consumes a frontier is checked
// against a fresh evaluator that never saw the other sets.
func TestFrontierNeverSharedAcrossSets(t *testing.T) {
	sys := frontierTestSystem(t)
	all := types.FullSet(sys.Params.N)
	p01 := types.ProcSet(0).Add(0).Add(1)

	// Deliberately adversarial pairs: same name, different membership;
	// and equal membership, distinct identity.
	sets := []NonrigidSet{
		Nonfaulty(),
		Const("S", all),
		Const("S", p01), // same name as above, different content
		Const("S", p01), // same name AND content, distinct identity
		Const("solo", types.ProcSet(0).Add(2)),
		Intersect(Nonfaulty(), Const("S", p01)),
	}

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

	// One evaluator sees every set back to back — the scenario where a
	// leaked frontier would corrupt answers. Its tables must match a
	// fresh evaluator that computes each set in isolation.
	shared := NewEvaluator(sys)
	for si, s := range sets {
		for fi, f := range build(s) {
			got := shared.Eval(f)
			fresh := NewEvaluator(sys)
			want := fresh.Eval(f)
			if !got.Equal(want) {
				t.Errorf("set %d formula %d (%s): shared evaluator disagrees with fresh one — frontier leaked across sets", si, fi, f)
			}
		}
	}

	// The cache must key by identity: after evaluating over all sets,
	// there is one frontier per distinct set value.
	if got, want := len(shared.frontiers), len(sets); got != want {
		t.Errorf("%d cached frontiers for %d distinct sets", got, want)
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
