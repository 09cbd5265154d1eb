package system

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// EnumerateParallel is Enumerate with run generation spread across a
// worker pool; see FromPatternsParallel for the determinism contract.
// workers <= 0 selects runtime.GOMAXPROCS(0).
//
// No binary builds this way: the sharded builder measured 0.84x /
// 0.94x of the per-run serial builder it shards and is several times
// slower than the prefix-sharing FromPatterns. It stays as benchmark
// API surface (the system.build_par_ms row) and as the subject of the
// digest:seq-vs-parallel conformance law.
func EnumerateParallel(params types.Params, mode failures.Mode, horizon, limit, workers int) (*System, error) {
	pats, err := enumerate(params, mode, horizon, limit)
	if err != nil {
		return nil, err
	}
	return FromPatternsParallel(params, mode, horizon, pats, workers)
}

// FromPatternsParallel builds the same System as FromPatterns by
// sharding the (failure pattern × initial configuration) work list
// across a bounded worker pool. Each worker generates its shard's runs
// against a private interner; a single-threaded merge then re-interns
// every view into the shared DAG in canonical order (pattern-major,
// configuration-minor, run-major within a run's view table — exactly
// the order the sequential build interns in). Because hash-cons keys
// are built from already-translated IDs, first-encounter order
// determines ID assignment, so the merged System is structurally
// identical to the sequential one: same run order, same view IDs, and
// therefore the same snapshot encoding and content digest.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 (or a work
// list smaller than 2 items) falls back to the sequential builder.
func FromPatternsParallel(params types.Params, mode failures.Mode, horizon int, pats []*failures.Pattern, workers int) (*System, error) {
	if err := validateBuild(params, mode, horizon, pats); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nconfigs := 1 << uint(params.N)
	items := len(pats) * nconfigs
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		return FromPatterns(params, mode, horizon, pats)
	}

	if telemetry.Enabled() {
		_, sp := telemetry.StartSpan(context.Background(), "system.enumerate_parallel",
			telemetry.L("n", fmt.Sprint(params.N)),
			telemetry.L("t", fmt.Sprint(params.T)),
			telemetry.L("mode", mode.String()),
			telemetry.L("horizon", fmt.Sprint(horizon)),
			telemetry.L("patterns", fmt.Sprint(len(pats))),
			telemetry.L("workers", fmt.Sprint(workers)))
		defer sp.End()
	}

	// Stage 1: sharded run generation. Work item k is pattern
	// k/nconfigs with configuration k%nconfigs — the canonical order —
	// and shards are contiguous item ranges, so the merge can walk
	// shard after shard and still visit items in canonical order.
	type shard struct {
		lo, hi int
		in     *views.Interner
		runs   [][][]views.ID // runs[k-lo] = view table of item k
	}
	shards := make([]*shard, 0, workers)
	chunk := (items + workers - 1) / workers
	for lo := 0; lo < items; lo += chunk {
		hi := lo + chunk
		if hi > items {
			hi = items
		}
		shards = append(shards, &shard{lo: lo, hi: hi})
	}
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.in = views.NewInterner(params.N)
			sh.runs = make([][][]views.ID, 0, sh.hi-sh.lo)
			for item := sh.lo; item < sh.hi; item++ {
				pat := pats[item/nconfigs]
				cfg := types.ConfigFromBits(params.N, uint64(item%nconfigs))
				sh.runs = append(sh.runs, views.BuildRun(sh.in, cfg, pat))
			}
		}(sh)
	}
	wg.Wait()

	// Stage 2: deterministic merge. Import each run's views into the
	// shared interner in canonical order; a run's time-m views only
	// reference time-(m-1) views of the same run, so every import after
	// the first row is a memo hit on its children and the shared
	// interner sees first encounters in exactly the sequential order.
	in := views.NewInterner(params.N)
	sys := &System{
		Params:   params,
		Mode:     mode,
		Horizon:  horizon,
		Interner: in,
		tbl:      newRunTable(params.N, horizon, pats),
	}
	out := sys.tbl.Views
	for _, sh := range shards {
		imp := views.NewImporter(in, sh.in)
		for _, rv := range sh.runs {
			for m := 0; m <= horizon; m++ {
				for p := 0; p < params.N; p++ {
					out[p] = imp.Import(rv[m][p])
				}
				out = out[params.N:]
			}
		}
		// Release the worker-local interner and view tables as soon as
		// they are merged; for big systems they dominate peak memory.
		sh.in, sh.runs = nil, nil
	}
	mRunsEnumerated.Add(uint64(sys.NumRuns()))
	return sys, nil
}
