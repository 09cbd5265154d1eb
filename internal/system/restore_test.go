package system

import (
	"fmt"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// cloneTable deep-copies a run table's arrays (the patterns themselves
// are shared), so a test can break one entry.
func cloneTable(tbl RunTable) RunTable {
	return RunTable{
		Patterns:  append([]*failures.Pattern(nil), tbl.Patterns...),
		PatternOf: append([]int32(nil), tbl.PatternOf...),
		ConfigOf:  append([]uint64(nil), tbl.ConfigOf...),
		Views:     append([]views.ID(nil), tbl.Views...),
	}
}

// TestReassembleRejects breaks one rule per case in the table of a
// healthy crash n=3 t=1 h=2 system and holds Reassemble to the error
// that names it. Run 3 is the failure-free run with configuration 011:
// slot k of a run is processor k%3 at time k/3.
func TestReassembleRejects(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	const mode, horizon, stride, run = failures.Crash, 2, 9, 3
	good, err := Enumerate(params, mode, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, size, npats := good.Interner, good.Interner.Size(), len(good.tbl.Patterns)
	slot := func(tbl *RunTable, m, p int) *views.ID { return &tbl.Views[run*stride+m*3+p] }

	for _, tc := range []struct {
		name  string
		in    *views.Interner
		wreck func(tbl *RunTable)
		want  string
	}{
		{"view past the interner", in, func(tbl *RunTable) { *slot(tbl, 1, 2) = views.ID(size) },
			fmt.Sprintf("system: run 3 time 1: view %d not in interner", size)},
		{"negative view", in, func(tbl *RunTable) { *slot(tbl, 2, 0) = views.NoView },
			"system: run 3 time 2: view -1 not in interner"},
		{"wrong owner", in, func(tbl *RunTable) { *slot(tbl, 1, 0) = *slot(tbl, 1, 1) },
			fmt.Sprintf("system: run 3 time 1: view %d is (p1,t1), want (p0,t1)", good.Run(run).View(1, 1))},
		{"wrong time", in, func(tbl *RunTable) { *slot(tbl, 2, 1) = *slot(tbl, 1, 1) },
			fmt.Sprintf("system: run 3 time 2: view %d is (p1,t1), want (p1,t2)", good.Run(run).View(1, 1))},
		{"time-0 view contradicts the configuration", in, func(tbl *RunTable) { tbl.ConfigOf[run] ^= 1 << 2 },
			"system: run 3: processor 2 starts with 0 in its view, 1 in the run's configuration"},
		{"time-0 view of another configuration", in, func(tbl *RunTable) { *slot(tbl, 0, 0) = good.Run(run-1).View(0, 0) },
			"system: run 3: processor 0 starts with 0 in its view, 1 in the run's configuration"},
		{"configuration bits past 2^n", in, func(tbl *RunTable) { tbl.ConfigOf[run] |= 1 << 3 },
			"system: run 3 config bits 0xb out of range for n=3"},
		{"pattern index past the list", in, func(tbl *RunTable) { tbl.PatternOf[run] = int32(npats) },
			fmt.Sprintf("system: run 3 references pattern %d of %d", npats, npats)},
		{"negative pattern index", in, func(tbl *RunTable) { tbl.PatternOf[run] = -1 },
			fmt.Sprintf("system: run 3 references pattern -1 of %d", npats)},
		{"configurations shorter than runs", in, func(tbl *RunTable) { tbl.ConfigOf = tbl.ConfigOf[1:] },
			fmt.Sprintf("system: run table has %d patterns, %d configurations and %d views for %d runs of 9",
				good.NumRuns(), good.NumRuns()-1, good.NumRuns()*stride, good.NumRuns())},
		{"views shorter than runs", in, func(tbl *RunTable) { tbl.Views = tbl.Views[:len(tbl.Views)-1] },
			fmt.Sprintf("system: run table has %d patterns, %d configurations and %d views for %d runs of 9",
				good.NumRuns(), good.NumRuns(), good.NumRuns()*stride-1, good.NumRuns())},
		{"no runs", in, func(tbl *RunTable) { tbl.PatternOf = nil },
			"system: no runs"},
		{"nil pattern", in, func(tbl *RunTable) { tbl.Patterns[1] = nil },
			"system: pattern 1 is missing"},
		{"no patterns", in, func(tbl *RunTable) { tbl.Patterns = nil },
			"system: no failure patterns"},
		{"pattern of another mode", in, func(tbl *RunTable) { tbl.Patterns[0] = failures.FailureFree(failures.Omission, 3, horizon) },
			"system: pattern mode omission, want crash"},
		{"nil interner", nil, func(*RunTable) {},
			"system: interner missing or sized for wrong n"},
		{"interner for another n", views.NewInterner(4), func(*RunTable) {},
			"system: interner missing or sized for wrong n"},
	} {
		tbl := cloneTable(good.tbl)
		tc.wreck(&tbl)
		sys, err := Reassemble(params, mode, horizon, tc.in, tbl)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if sys != nil {
			t.Errorf("%s: a system came back with the error", tc.name)
		}
	}
	if _, err := Reassemble(params, mode, horizon, in, cloneTable(good.tbl)); err != nil {
		t.Fatalf("the unbroken table: %v", err)
	}
}

// modeSystems builds the n=3 t=1 h=2 system of every failure mode.
func modeSystems(t *testing.T) []*System {
	t.Helper()
	var out []*System
	for _, mode := range failures.Modes {
		sys, err := Enumerate(types.Params{N: 3, T: 1}, mode, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// holdersByRun is NonfaultyHolders as its definition reads: every run,
// every processor nonfaulty in it, its view at the horizon.
func holdersByRun(sys *System) []int32 {
	count := make([]int32, sys.Interner.Size())
	for r := 0; r < sys.NumRuns(); r++ {
		run := sys.Run(r)
		for _, p := range run.Nonfaulty().Members() {
			count[run.View(sys.Horizon, p)]++
		}
	}
	return count
}

// TestNonfaultyHoldersBuiltOnFirstUse: no builder and no restore counts
// holders, the first NonfaultyHolders call does, and the count is the
// definition's in every failure mode, built or restored.
func TestNonfaultyHoldersBuiltOnFirstUse(t *testing.T) {
	for _, built := range modeSystems(t) {
		restored, err := Reassemble(built.Params, built.Mode, built.Horizon, built.Interner, built.tbl)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(holdersByRun(built))
		for name, sys := range map[string]*System{"FromPatterns": built, "Reassemble": restored} {
			if sys.holders != nil {
				t.Fatalf("%s: %s counted holders", built.Mode, name)
			}
			if got := fmt.Sprint(sys.NonfaultyHolders()); got != want {
				t.Fatalf("%s: %s: holders %s, want %s", built.Mode, name, got, want)
			}
		}
	}
}

// TestNonfaultyHoldersFirstCallConcurrent has eight goroutines make a
// restored system's first NonfaultyHolders call at once, as concurrent
// verdicts over a freshly loaded snapshot would.
func TestNonfaultyHoldersFirstCallConcurrent(t *testing.T) {
	for _, built := range modeSystems(t) {
		restored, err := Reassemble(built.Params, built.Mode, built.Horizon, built.Interner, built.tbl)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(built.NonfaultyHolders())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if got := fmt.Sprint(restored.NonfaultyHolders()); got != want {
					t.Errorf("%s: goroutine %d: holders %s, want %s", built.Mode, g, got, want)
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}
