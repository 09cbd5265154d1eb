package knowledge

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// mParEvalShards counts shards dispatched by the evaluator's parallel
// stages (an eba_parallel_* companion to the system builder's series).
var mParEvalShards = telemetry.Default().Counter("eba_parallel_eval_shards_total")

// parMinWork is the point count below which sharding costs more than
// it saves; small systems run the sequential path unconditionally.
const parMinWork = 1 << 12

// defaultPar is the process-wide default worker bound inherited by new
// evaluators; 0 selects runtime.GOMAXPROCS(0). Commands set it once at
// flag-parsing time so every evaluator built behind library code (the
// experiments, the facade, audits) follows the -parallel flag.
var defaultPar atomic.Int64

// SetDefaultParallelism sets the worker bound NewEvaluator starts
// with. w <= 0 restores the default, runtime.GOMAXPROCS(0); w == 1
// makes new evaluators sequential unless overridden per-evaluator.
func SetDefaultParallelism(w int) {
	if w < 0 {
		w = 0
	}
	defaultPar.Store(int64(w))
}

// SetParallelism bounds the evaluator's internal worker pool. w <= 0
// restores the process default (SetDefaultParallelism, itself
// defaulting to runtime.GOMAXPROCS(0)); w == 1 forces the sequential
// path. The truth tables produced are bit-identical at any setting —
// parallelism only changes how point shards are scheduled.
func (e *Evaluator) SetParallelism(w int) { e.par = EffectiveParallelism(w) }

// Parallelism returns the evaluator's effective worker bound.
func (e *Evaluator) Parallelism() int { return e.par }

// EffectiveParallelism resolves a requested worker bound the way
// SetParallelism does — through the process default down to
// runtime.GOMAXPROCS(0) — without building an evaluator. Provenance
// blocks use it to report the bound a cached answer would have been
// computed under.
func EffectiveParallelism(w int) int {
	if w <= 0 {
		w = int(defaultPar.Load())
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// parallelBits splits the bit-index range [0, n) into word-aligned
// chunks and runs fn on each concurrently. fn(lo, hi) must write only
// bits (or elements) with index in [lo, hi); alignment to 64 keeps
// concurrent writers off shared bitset words.
func (e *Evaluator) parallelBits(n int, fn func(lo, hi int)) {
	w := e.par
	if w <= 1 || n < parMinWork {
		fn(0, n)
		return
	}
	sp := e.startSpan("knowledge.shards", telemetry.L("kind", "bits"))
	chunk := ((n+w-1)/w + 63) &^ 63
	var wg sync.WaitGroup
	shards := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		mParEvalShards.Inc()
		shards++
		go func(lo, hi int) { defer wg.Done(); fn(lo, hi) }(lo, hi)
	}
	wg.Wait()
	e.stats.Shards += shards
	sp.End(telemetry.L("shards", strconv.Itoa(shards)))
}

// parallelRuns splits the run range [0, nr) into chunks of whole runs,
// aligned to 64 runs so that the corresponding bit ranges (a run spans
// horizon+1 consecutive bits) start and end on word boundaries
// regardless of horizon. fn(lo, hi) owns runs [lo, hi) and their bits.
func (e *Evaluator) parallelRuns(nr int, fn func(lo, hi int)) {
	w := e.par
	if w <= 1 || nr*(e.sys.Horizon+1) < parMinWork {
		fn(0, nr)
		return
	}
	sp := e.startSpan("knowledge.shards", telemetry.L("kind", "runs"))
	chunk := ((nr+w-1)/w + 63) &^ 63
	var wg sync.WaitGroup
	shards := 0
	for lo := 0; lo < nr; lo += chunk {
		hi := lo + chunk
		if hi > nr {
			hi = nr
		}
		wg.Add(1)
		mParEvalShards.Inc()
		shards++
		go func(lo, hi int) { defer wg.Done(); fn(lo, hi) }(lo, hi)
	}
	wg.Wait()
	e.stats.Shards += shards
	sp.End(telemetry.L("shards", strconv.Itoa(shards)))
}
