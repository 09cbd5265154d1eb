package system

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

func TestEnumerateCrashCounts(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	sys, err := Enumerate(params, failures.Crash, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 22 patterns (cf. failures tests) × 8 configs.
	if sys.NumRuns() != 22*8 {
		t.Fatalf("NumRuns = %d, want %d", sys.NumRuns(), 22*8)
	}
	if sys.NumPoints() != sys.NumRuns()*3 {
		t.Fatalf("NumPoints = %d", sys.NumPoints())
	}
	count := 0
	sys.ForEachPoint(func(Point) { count++ })
	if count != sys.NumPoints() {
		t.Fatalf("ForEachPoint visited %d", count)
	}
}

func TestEnumerateOmissionLimit(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	if _, err := Enumerate(params, failures.Omission, 3, 5); err == nil {
		t.Fatal("limit not enforced")
	}
	if _, err := Enumerate(params, failures.Mode(0), 3, 0); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestFromPatternsValidation(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	good := failures.FailureFree(failures.Crash, 3, 2)
	tests := []struct {
		name string
		fn   func() (*System, error)
	}{
		{"bad params", func() (*System, error) {
			return FromPatterns(types.Params{N: 1, T: 0}, failures.Crash, 2, []*failures.Pattern{good})
		}},
		{"bad horizon", func() (*System, error) {
			return FromPatterns(params, failures.Crash, 0, []*failures.Pattern{good})
		}},
		{"no patterns", func() (*System, error) {
			return FromPatterns(params, failures.Crash, 2, nil)
		}},
		{"mode mismatch", func() (*System, error) {
			return FromPatterns(params, failures.Omission, 2, []*failures.Pattern{good})
		}},
		{"n mismatch", func() (*System, error) {
			return FromPatterns(params, failures.Crash, 2, []*failures.Pattern{failures.FailureFree(failures.Crash, 4, 2)})
		}},
		{"horizon mismatch", func() (*System, error) {
			return FromPatterns(params, failures.Crash, 3, []*failures.Pattern{good})
		}},
		{"too many faulty", func() (*System, error) {
			pat := failures.MustPattern(failures.Crash, 3, 2, types.SetOf(0, 1), nil)
			return FromPatterns(params, failures.Crash, 2, []*failures.Pattern{pat})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.fn(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestPointIndexRoundTrip(t *testing.T) {
	sys, err := Enumerate(types.Params{N: 3, T: 1}, failures.Crash, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < sys.NumPoints(); idx++ {
		if got := sys.PointIndex(sys.PointAt(idx)); got != idx {
			t.Fatalf("round trip %d -> %d", idx, got)
		}
	}
}

func TestPointsWithViewConsistency(t *testing.T) {
	sys, err := Enumerate(types.Params{N: 3, T: 1}, failures.Crash, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every point appears in the class of its own view, and every
	// member of a class holds the class's view.
	sys.ForEachPoint(func(pt Point) {
		for p := types.ProcID(0); p < 3; p++ {
			id := sys.ViewAt(pt, p)
			found := false
			for _, qi := range sys.PointIdxWithView(id) {
				q := sys.PointAt(int(qi))
				if q == pt {
					found = true
				}
				if sys.ViewAt(q, p) != id {
					t.Fatalf("class member %v does not hold view", q)
				}
				if q.Time != pt.Time {
					t.Fatalf("view shared across times %d and %d", q.Time, pt.Time)
				}
			}
			if !found {
				t.Fatalf("point %v missing from its own class", pt)
			}
		}
	})
}

func TestIndistinguishableRunsShareViews(t *testing.T) {
	// The silent-processor construction: runs differing only in the
	// silent processor's initial value are indistinguishable to the
	// others, so their points share classes.
	params := types.Params{N: 3, T: 1}
	pats := []*failures.Pattern{
		failures.Silent(failures.Omission, 3, 2, 2, 1),
		failures.FailureFree(failures.Omission, 3, 2),
	}
	sys, err := FromPatterns(params, failures.Omission, 2, pats)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := types.ConfigFromBits(3, 0b011) // proc 2 has 0
	cfgB := types.ConfigFromBits(3, 0b111) // proc 2 has 1
	ra, ok := sys.FindRun(cfgA, pats[0].Key())
	if !ok {
		t.Fatal("run A missing")
	}
	rb, ok := sys.FindRun(cfgB, pats[0].Key())
	if !ok {
		t.Fatal("run B missing")
	}
	for m := 0; m <= 2; m++ {
		for _, p := range []types.ProcID{0, 1} {
			if ra.View(m, p) != rb.View(m, p) {
				t.Fatalf("proc %d distinguishes at time %d", p, m)
			}
		}
		if ra.View(m, 2) == rb.View(m, 2) {
			t.Fatal("proc 2 must distinguish its own value")
		}
	}
	if ra.Nonfaulty() != types.SetOf(0, 1) {
		t.Fatalf("Nonfaulty = %v", ra.Nonfaulty())
	}
	if _, ok := sys.FindRun(cfgA, "nonsense"); ok {
		t.Fatal("FindRun matched nonsense key")
	}
}

// TestEnumerateLimitSemantics pins the limit contract at the system
// layer for both modes: 0 means no limit (crash mode ignores the bound
// entirely), and a negative limit is an error before any enumeration
// happens.
func TestEnumerateLimitSemantics(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	if _, err := Enumerate(params, failures.Crash, 2, 0); err != nil {
		t.Fatalf("crash, limit 0: %v", err)
	}
	if _, err := Enumerate(params, failures.Omission, 1, 0); err != nil {
		t.Fatalf("omission, limit 0 (no limit): %v", err)
	}
	for _, mode := range []failures.Mode{failures.Crash, failures.Omission} {
		_, err := Enumerate(params, mode, 2, -7)
		if err == nil {
			t.Fatalf("%v: negative limit accepted", mode)
		}
		if !strings.Contains(err.Error(), "negative pattern limit") {
			t.Fatalf("%v: negative limit error %q does not name the cause", mode, err)
		}
	}
	// The parallel front shares the same contract.
	if _, err := EnumerateParallel(params, failures.Crash, 2, -7, 4); err == nil {
		t.Fatal("EnumerateParallel: negative limit accepted")
	}
}

// perRunTable is the differential oracle of the prefix-sharing
// builder: views.BuildRun, run by run in the canonical order, into a
// fresh interner.
func perRunTable(params types.Params, horizon int, pats []*failures.Pattern) (*views.Interner, []views.ID) {
	in := views.NewInterner(params.N)
	var tbl []views.ID
	for _, pat := range pats {
		for mask := uint64(0); mask < 1<<uint(params.N); mask++ {
			for _, row := range views.BuildRun(in, types.ConfigFromBits(params.N, mask), pat) {
				tbl = append(tbl, row...)
			}
		}
	}
	return in, tbl
}

// TestFromPatternsMatchesPerRunBuild holds the prefix-sharing builder
// to the per-run build, table for table (so ID for ID: both interners
// assign IDs in first-encounter order), on the shapes where a
// prefix trie can go wrong: no interior prefix (h = 1), the smallest
// system, a single pattern, lists that repeat patterns or arrive out
// of enumeration order, and patterns whose deliveries are cut from
// both ends of a link — including descriptions the enumerators never
// produce.
func TestFromPatternsMatchesPerRunBuild(t *testing.T) {
	enum := func(mode failures.Mode, n, tf, h int) []*failures.Pattern {
		pats, err := enumerate(types.Params{N: n, T: tf}, mode, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pats
	}
	shuffled := func(pats []*failures.Pattern) []*failures.Pattern {
		out := append([]*failures.Pattern(nil), pats...)
		rand.New(rand.NewSource(21)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	om := enum(failures.Omission, 3, 1, 2)
	gen := enum(failures.GeneralOmission, 3, 1, 2)
	// Processor 1 drops the round-1 message of faulty processor 0 — a
	// legal general-omission description that Canonicalize would
	// rewrite as a sending omission by 0 — and 0 omits to 2 in round 2.
	nonCanonical := failures.MustPattern(failures.GeneralOmission, 3, 2, types.SetOf(0, 1), map[types.ProcID]*failures.Behavior{
		0: {Omit: []types.ProcSet{0, types.SetOf(2)}},
		1: {Recv: []types.ProcSet{types.SetOf(0), 0}},
	})
	sampled, err := failures.SampleGeneral(4, 2, 3, 12, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		params  types.Params
		mode    failures.Mode
		horizon int
		pats    []*failures.Pattern
	}{
		{"h1", types.Params{N: 3, T: 1}, failures.Omission, 1, enum(failures.Omission, 3, 1, 1)},
		{"h1-general", types.Params{N: 3, T: 1}, failures.GeneralOmission, 1, enum(failures.GeneralOmission, 3, 1, 1)},
		{"n2", types.Params{N: 2, T: 1}, failures.ReceivingOmission, 3, enum(failures.ReceivingOmission, 2, 1, 3)},
		{"t0", types.Params{N: 3, T: 0}, failures.Crash, 2, enum(failures.Crash, 3, 0, 2)},
		{"crash-h4", types.Params{N: 3, T: 2}, failures.Crash, 4, enum(failures.Crash, 3, 2, 4)},
		{"repeated", types.Params{N: 3, T: 1}, failures.Omission, 2,
			append(append([]*failures.Pattern{om[7], om[7]}, om...), om[3], om[len(om)-1])},
		{"shuffled", types.Params{N: 3, T: 1}, failures.Omission, 2, shuffled(om)},
		{"shuffled-general", types.Params{N: 3, T: 1}, failures.GeneralOmission, 2, shuffled(gen)},
		{"non-canonical", types.Params{N: 3, T: 2}, failures.GeneralOmission, 2,
			[]*failures.Pattern{failures.FailureFree(failures.GeneralOmission, 3, 2), nonCanonical}},
		{"sampled-general", types.Params{N: 4, T: 2}, failures.GeneralOmission, 3, sampled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := FromPatterns(tc.params, tc.mode, tc.horizon, tc.pats)
			if err != nil {
				t.Fatal(err)
			}
			in, want := perRunTable(tc.params, tc.horizon, tc.pats)
			got := sys.Table()
			if sys.Interner.Size() != in.Size() {
				t.Fatalf("%d distinct views, per-run build has %d", sys.Interner.Size(), in.Size())
			}
			if len(got.Views) != len(want) {
				t.Fatalf("table has %d views, per-run build has %d", len(got.Views), len(want))
			}
			for i, id := range want {
				if got.Views[i] != id {
					n := tc.params.N
					t.Fatalf("run %d time %d processor %d: view %d, per-run build has %d",
						i/((tc.horizon+1)*n), i/n%(tc.horizon+1), i%n, got.Views[i], id)
				}
			}
			for r := 0; r < sys.NumRuns(); r++ {
				run := sys.Run(r)
				if run.Pattern() != tc.pats[r>>uint(tc.params.N)] || run.ConfigBits() != uint64(r)&(1<<uint(tc.params.N)-1) {
					t.Fatalf("run %d is (pattern %s, cfg %s): not the canonical order", r, run.Pattern(), run.Config())
				}
			}
		})
	}
}

// TestFromPatternsAllocatesPerViewNotPerRun is the allocation bound
// that keeps per-run heap objects from creeping back, without reading
// a clock. Building over a pattern list given twice adds as many runs
// again but no view, no pattern and no prefix, so what the second
// copy may allocate is the bound: under a quarter of an allocation
// per added run (a per-run object would cost at least one). The
// absolute count is not the test: omission-n3-t1-h3 has 2,310
// distinct views over 1,544 runs, and each view is one allocation
// inside views.Interner whoever builds the system.
func TestFromPatternsAllocatesPerViewNotPerRun(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	pats, err := enumerate(params, failures.Omission, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	twice := append(append([]*failures.Pattern(nil), pats...), pats...)
	build := func(list []*failures.Pattern) func() {
		return func() {
			if _, err := FromPatterns(params, failures.Omission, 3, list); err != nil {
				t.Fatal(err)
			}
		}
	}
	once, both := testing.AllocsPerRun(5, build(pats)), testing.AllocsPerRun(5, build(twice))
	added := float64(len(pats) << uint(params.N))
	t.Logf("%v allocations for %v runs, %v for twice the list", once, added, both)
	if both-once >= added/4 {
		t.Fatalf("%v runs added %v allocations (%v → %v): the builder allocates per run",
			added, both-once, once, both)
	}
}
