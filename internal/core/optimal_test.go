package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// checkedPairs are the pairs cmd/ebacheck builds in any mode (P0, P1
// and P0opt in crash; the semantic chain pair and F* = its prime step
// otherwise; the two-step optimum from FΛ in both) together with the
// chain protocol's syntactic pair, all in every mode, so that every
// mode has pairs that fail the oracle.
func checkedPairs(e *knowledge.Evaluator) []fip.Pair {
	never := fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
	chain := protocols.Chain0SemanticPair(e)
	return []fip.Pair{
		protocols.P0Pair(1), protocols.P1Pair(1), protocols.P0OptPair(), protocols.Chain0SyntacticPair(),
		chain, core.PrimeStep(e, chain, "F*"), core.TwoStep(e, never),
	}
}

// optimalPins are IsOptimal's exact answers, counterexample text
// included, for checkedPairs at n=3 t=1 — crash and sending omission at
// ebacheck's default horizon t+2, the two receiving modes at 2.
var optimalPins = map[string][]string{
	"crash": {
		`P0 false "P0 fails Theorem 5.3 1-condition for processor 0 at time 1 of run 7 (cfg 111, crash: failure-free)"`,
		`P1 false "P1 fails Theorem 5.3 0-condition for processor 0 at time 1 of run 0 (cfg 000, crash: failure-free)"`,
		`P0opt true ""`, `Chain0 true ""`, `Z0O0 true ""`, `F* true ""`, `FΛ² true ""`,
	},
	"omission": {
		`P0 false "P0 fails Theorem 5.3 0-condition for processor 0 at time 3 of run 533 (cfg 101, omission: faulty={1} p1[r1 omit {0,2} r2 omit {0,2} r3 omit {2}])"`,
		`P1 false "P1 fails Theorem 5.3 0-condition for processor 0 at time 1 of run 0 (cfg 000, omission: failure-free)"`,
		`P0opt false "P0opt fails Theorem 5.3 0-condition for processor 0 at time 3 of run 533 (cfg 101, omission: faulty={1} p1[r1 omit {0,2} r2 omit {0,2} r3 omit {2}])"`,
		`Chain0 true ""`, `Z0O0 true ""`, `F* true ""`, `FΛ² true ""`,
	},
	"receiving-omission": {
		`P0 false "P0 fails Theorem 5.3 1-condition for processor 0 at time 1 of run 7 (cfg 111, receiving-omission: failure-free)"`,
		`P1 false "P1 fails Theorem 5.3 0-condition for processor 0 at time 1 of run 0 (cfg 000, receiving-omission: failure-free)"`,
		`P0opt true ""`, `Chain0 true ""`, `Z0O0 true ""`, `F* true ""`, `FΛ² true ""`,
	},
	"general-omission": {
		`P0 false "P0 fails Theorem 5.3 0-condition for processor 0 at time 2 of run 2093 (cfg 101, general-omission: faulty={1} p1[r1 omit {0,2} r1 drop-recv {0,2} r2 omit {2} r2 drop-recv {0,2}])"`,
		`P1 false "P1 fails Theorem 5.3 0-condition for processor 0 at time 1 of run 0 (cfg 000, general-omission: failure-free)"`,
		`P0opt false "P0opt fails Theorem 5.3 0-condition for processor 0 at time 2 of run 2093 (cfg 101, general-omission: faulty={1} p1[r1 omit {0,2} r1 drop-recv {0,2} r2 omit {2} r2 drop-recv {0,2}])"`,
		`Chain0 false "Chain0 fails Theorem 5.3 0-condition for processor 0 at time 2 of run 3117 (cfg 101, general-omission: faulty={1} p1[r1 omit {0} r1 drop-recv {0,2} r2 omit {2} r2 drop-recv {0,2}])"`,
		`Z0O0 true ""`, `F* true ""`, `FΛ² true ""`,
	},
}

// TestIsOptimalPinned holds the Theorem 5.3 oracle to its pinned
// verdicts and counterexamples in all four modes.
func TestIsOptimalPinned(t *testing.T) {
	for _, tc := range []struct {
		mode failures.Mode
		h    int
	}{
		{failures.Crash, 3},
		{failures.Omission, 3},
		{failures.ReceivingOmission, 2},
		{failures.GeneralOmission, 2},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys, err := system.Enumerate(types.Params{N: 3, T: 1}, tc.mode, tc.h, 0)
			if err != nil {
				t.Fatal(err)
			}
			e := knowledge.NewEvaluator(sys)
			var got []string
			for _, p := range checkedPairs(e) {
				ok, msg := core.IsOptimal(e, p)
				got = append(got, fmt.Sprintf("%s %v %q", p.Name, ok, msg))
			}
			want := optimalPins[tc.mode.String()]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("IsOptimal answers:\n%#v\nwant\n%#v", got, want)
			}
		})
	}
}

// allocatedBytes returns the bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIsOptimalAllocatesPointTablesOnlyForCBox is the allocation bound
// that keeps per-point truth tables out of the Theorem 5.3 oracle,
// without reading a clock. On a passing pair IsOptimal decides every
// condition from class tables: the only point tables it needs are its
// two C□ tables and the ones they need (∃0, ∃1, 𝒩's membership).
// Building over a pattern list given twice adds as many points again
// but no view, so no class; what IsOptimal allocates for the second
// copy, beyond what the two C□ tables alone allocate for it, is the
// bound — under n bit tables' worth per added point (evaluating each
// condition to points costs over ten tables per processor).
func TestIsOptimalAllocatesPointTablesOnlyForCBox(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	const h = 3
	pats, err := failures.EnumOmission(params.N, params.T, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	never := fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
	measure := func(list []*failures.Pattern) (optimal, cbox uint64) {
		sys, err := system.FromPatterns(params, failures.Omission, h, list)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() *knowledge.Evaluator {
			e := knowledge.NewEvaluator(sys)
			e.SetParallelism(1)
			return e
		}
		p := core.TwoStep(fresh(), never)
		e := fresh()
		optimal = allocatedBytes(func() {
			if ok, msg := core.IsOptimal(e, p); !ok {
				t.Fatalf("the two-step optimum fails the oracle: %s", msg)
			}
		})
		e = fresh()
		cbox = allocatedBytes(func() {
			e.Eval(knowledge.CBox(core.NAnd(p.O), knowledge.Exists0()))
			e.Eval(knowledge.CBox(core.NAnd(p.Z), knowledge.Exists1()))
		})
		return optimal, cbox
	}
	twice := append(append([]*failures.Pattern(nil), pats...), pats...)
	o1, c1 := measure(pats)
	o2, c2 := measure(twice)
	added := len(pats) << uint(params.N) * (h + 1)
	extra := int64(o2-o1) - int64(c2-c1)
	budget := int64(params.N * added / 8)
	t.Logf("IsOptimal %d → %d bytes, its C□ tables %d → %d, for %d added points: %d extra bytes, budget %d",
		o1, o2, c1, c2, added, extra, budget)
	if extra >= budget {
		t.Fatalf("%d added points cost IsOptimal %d bytes beyond its C□ tables (budget %d): it builds point tables per condition",
			added, extra, budget)
	}
}
