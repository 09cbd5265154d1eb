package knowledge_test

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/bench"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// TestCDiamondMatchesNaive holds the C◇ worklist to the naive downward
// iteration on every benchmark key, C◇_𝒩 E0 and C◇_𝒩 E1 each: the same
// table and the same round count.
func TestCDiamondMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every benchmark system, the n=4 t=2 omission one included")
	}
	nf := knowledge.Nonfaulty()
	for _, k := range bench.AllKeys {
		t.Run(k.Slug(), func(t *testing.T) {
			mode, err := failures.ParseMode(k.Mode)
			if err != nil {
				t.Fatal(err)
			}
			limit := 0
			if mode != failures.Crash {
				limit = service.DefaultOmissionLimit
			}
			sys, err := system.Enumerate(types.Params{N: k.N, T: k.T}, mode, k.H, limit)
			if err != nil {
				t.Fatal(err)
			}
			for _, phi := range []knowledge.Formula{knowledge.Exists0(), knowledge.Exists1()} {
				f := knowledge.CDiamond(nf, phi)
				e := knowledge.NewEvaluator(sys)
				got := e.Eval(f)
				want, rounds := knowledge.NaiveCDiamond(knowledge.NewEvaluator(sys), nf, phi)
				if !got.Equal(want) {
					for idx := 0; idx < sys.NumPoints(); idx++ {
						if got.Get(idx) != want.Get(idx) {
							t.Fatalf("%s at %v: worklist %v, naive iteration %v", f, sys.PointAt(idx), got.Get(idx), want.Get(idx))
						}
					}
				}
				if n := e.Stats().CDiamondIterations; n != rounds {
					t.Errorf("%s: worklist counts %d rounds, naive iteration %d", f, n, rounds)
				}
				t.Logf("%s: %d of %d points, %d rounds", f, got.Count(), sys.NumPoints(), rounds)
			}
		})
	}
}
