package conform

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// Test-only mutants: each one injects a specific falsehood into one
// pillar so the harness can prove it would catch a real violation of
// that kind. They exist for the harness's own tests and for manual
// sanity runs (`ebaconform -mutant law`); production runs leave
// Options.Mutant empty.
const (
	// MutantLaw adds a false epistemic law (E_S φ → C_S φ) to the
	// registry claims; it fails on every generated system.
	MutantLaw = "law"
	// MutantOracle adds the registry's Thm 5.2/5.3 optimum claim with
	// the unoptimized input protocol FΛ presented as the output of the
	// two-step construction; FΛ never decides, so the Thm 5.3 oracle
	// rejects it on every system.
	MutantOracle = "oracle"
	// MutantDifferential perturbs the live trace's decisions before
	// the replay comparison, so sim.DiffTraces reports a divergence.
	MutantDifferential = "differential"
	// MutantCluster installs a routing override in the conformance
	// fleet that sends every key to the wrong node, so the cluster
	// pillar's served-by-owner check fails on every routed query.
	MutantCluster = "cluster"
	// MutantReconstruction replaces the live run's receiving-mode
	// pattern with a sender-attributed reconstruction of the same
	// observation — the classic mode-confusion bug where a receive
	// drop is blamed on the sender. Deliveries are identical, so only
	// the differential pillar's system lookup (and, past the fault
	// bound, CheckBound) can catch it.
	MutantReconstruction = "reconstruction"
	// MutantParity strips the receive schedules from the embedding the
	// mode-parity laws use, so an embedded receiving-omission pattern
	// silently loses its drops; the deliveries-identical parity law
	// must catch the divergence.
	MutantParity = "parity"
	// MutantPrefix hands the build:prefix-vs-perrun law a system built
	// as if the prefix-sharing builder keyed its run prefixes without
	// the receive-omission half of the delivery matrix; the comparison
	// with the per-run build must catch it wherever a receive drop is
	// visible.
	MutantPrefix = "prefix"
)

// Mutants lists the accepted Options.Mutant values.
var Mutants = []string{MutantLaw, MutantOracle, MutantDifferential, MutantCluster, MutantReconstruction, MutantParity, MutantPrefix}

// Options configures a conformance run.
type Options struct {
	// Seed is the base seed; scenario i uses seed Seed+i, so a corpus
	// record's seed replays alone with {Seed: thatSeed, Count: 1}.
	Seed int64
	// Count is the number of scenarios (default 100).
	Count int
	// Modes restricts scenario generation to the listed failure modes
	// (empty = all of failures.Modes). The filter is part of scenario
	// derivation, so corpus records from a filtered run replay with
	// the same -mode argument (recorded in their replay hint).
	Modes []failures.Mode
	// Budget bounds wall-clock time; once exceeded, no new scenarios
	// start and the result is marked truncated. 0 = no budget.
	Budget time.Duration
	// Parallel is the number of scenarios in flight (default
	// min(4, GOMAXPROCS); live TCP runs are deadline-sensitive, so the
	// default stays modest even on wide machines).
	Parallel int
	// Deadline is the live runtime's per-round receive deadline
	// (default 200ms, doubled on reconstruction retries).
	Deadline time.Duration
	// CacheDir is the snapshot store directory; empty uses a
	// throwaway temp dir (removed when the run ends).
	CacheDir string
	// Corpus, when non-empty, is the JSONL file violations are
	// appended to.
	Corpus string
	// Mutant injects a test-only fault (see the Mutant* constants).
	Mutant string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Result summarizes a conformance run.
type Result struct {
	Scenarios  int           // scenarios executed
	Skipped    int           // scenarios not started (budget exhausted)
	Keys       int           // distinct system keys exercised
	Checks     int           // individual assertions evaluated
	Violations []Violation   // all violations, in scenario order
	Truncated  bool          // true when the budget cut the run short
	Elapsed    time.Duration `json:"-"`
}

// Violation is one failed conformance check; it is the JSONL corpus
// record format. Seed alone replays it.
type Violation struct {
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	T       int    `json:"t"`
	Mode    string `json:"mode"`
	Horizon int    `json:"horizon"`
	Config  string `json:"config"`
	Pillar  string `json:"pillar"` // differential | law | claim | cluster
	Law     string `json:"law"`    // which check failed
	Detail  string `json:"detail"` // counterexample / diff text
	Replay  string `json:"replay"` // command line reproducing it
}

// violationOf stamps a failed check with its scenario's coordinates.
func violationOf(sc Scenario, pillar, law, detail string) Violation {
	replay := fmt.Sprintf("ebaconform -seed %d -count 1", sc.Seed)
	if len(sc.Filter) > 0 {
		replay += " -mode " + ModesArg(sc.Filter)
	}
	return Violation{
		Seed:    sc.Seed,
		N:       sc.N,
		T:       sc.T,
		Mode:    sc.Mode.String(),
		Horizon: sc.Horizon,
		Config:  sc.Config.String(),
		Pillar:  pillar,
		Law:     law,
		Detail:  detail,
		Replay:  replay,
	}
}

// Runner executes scenarios against one shared store and engine.
type Runner struct {
	opts   Options
	store  *store.Store
	engine *service.Engine

	// keys and clusterKeys hold one sync.Once per system key for the
	// pillars that depend only on the key (see perKey).
	mu          sync.Mutex
	keys        map[store.Key]*sync.Once
	clusterKeys map[store.Key]*sync.Once

	// cluster is the lazily-booted three-node fleet the cluster
	// pillar drives; see clusterlaw.go.
	cluster clusterFixture
}

func (r *Runner) logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, format+"\n", args...)
	}
}

// perKey runs fn once per system key: many scenarios share a key, and
// its key-level pillars depend only on the key, so the first scenario
// to reach it runs them and is charged with their violations and
// checks; later scenarios get nothing.
func (r *Runner) perKey(onces map[store.Key]*sync.Once, key store.Key, fn func() ([]Violation, int)) (vs []Violation, checks int) {
	r.mu.Lock()
	once := onces[key]
	if once == nil {
		once = new(sync.Once)
		onces[key] = once
	}
	r.mu.Unlock()
	once.Do(func() { vs, checks = fn() })
	return vs, checks
}

// keyChecks runs the law and claim pillars for sc's key.
func (r *Runner) keyChecks(sc Scenario) ([]Violation, int) {
	return r.perKey(r.keys, sc.Key(), func() ([]Violation, int) {
		r.logf("key %s: checking laws + claims (first scenario %s)", sc.Key().Slug(), sc.Desc())
		seq, err := system.Enumerate(sc.Params(), sc.Mode, sc.Horizon, sc.Key().Limit)
		if err != nil {
			return []Violation{violationOf(sc, "law", "enumerate", err.Error())}, 1
		}
		ev := knowledge.NewEvaluator(seq)
		lv, lc := r.checkLaws(sc, seq, ev)
		cv, cc := r.checkClaims(sc, seq, ev)
		return append(lv, cv...), lc + cc
	})
}

// Run executes a full conformance pass.
func Run(opts Options) (*Result, error) {
	if opts.Count <= 0 {
		opts.Count = 100
	}
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.GOMAXPROCS(0)
		if opts.Parallel > 4 {
			opts.Parallel = 4
		}
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 200 * time.Millisecond
	}
	if opts.Mutant != "" && !slices.Contains(Mutants, opts.Mutant) {
		return nil, fmt.Errorf("conform: unknown mutant %q (want %v)", opts.Mutant, Mutants)
	}
	for _, m := range opts.Modes {
		if !m.Valid() {
			return nil, fmt.Errorf("conform: %w %v in Options.Modes", failures.ErrUnknownMode, m)
		}
	}

	dir := opts.CacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ebaconform-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	st, err := store.Open(dir, 8)
	if err != nil {
		return nil, err
	}
	// The trace-completeness law needs somewhere to read traces back
	// from; give it a retention ring when the host process has none.
	if telemetry.DefaultRing() == nil {
		telemetry.SetRing(1 << 14)
	}
	r := &Runner{
		opts:        opts,
		store:       st,
		engine:      service.NewEngine(st, 0),
		keys:        make(map[store.Key]*sync.Once),
		clusterKeys: make(map[store.Key]*sync.Once),
	}
	defer r.cluster.close()

	start := time.Now()
	type outcome struct {
		violations []Violation
		checks     int
		skipped    bool
	}
	results := make([]outcome, opts.Count)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < opts.Count; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < opts.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if opts.Budget > 0 && time.Since(start) > opts.Budget {
					results[i] = outcome{skipped: true}
					continue
				}
				sc := NewScenarioIn(opts.Seed+int64(i), opts.Modes)
				var vs []Violation
				checks := 0
				for _, pillar := range []func(Scenario) ([]Violation, int){r.runDifferential, r.runTraceLaw, r.keyChecks, r.clusterPillar} {
					pv, pc := pillar(sc)
					vs, checks = append(vs, pv...), checks+pc
				}
				for _, v := range vs {
					r.logf("VIOLATION %s %s/%s: %s", sc.Desc(), v.Pillar, v.Law, v.Detail)
					telemetry.Emit("conform.violation",
						telemetry.L("pillar", v.Pillar),
						telemetry.L("law", v.Law),
						telemetry.L("seed", fmt.Sprint(v.Seed)))
				}
				results[i] = outcome{violations: vs, checks: checks}
			}
		}()
	}
	wg.Wait()

	res := &Result{Elapsed: time.Since(start)}
	for _, out := range results {
		if out.skipped {
			res.Skipped++
			continue
		}
		res.Scenarios++
		res.Checks += out.checks
		res.Violations = append(res.Violations, out.violations...)
	}
	res.Truncated = res.Skipped > 0
	res.Keys = len(r.keys)
	if res.Truncated {
		r.logf("budget exhausted after %v: %d of %d scenarios skipped", opts.Budget, res.Skipped, opts.Count)
	}
	if opts.Corpus != "" && len(res.Violations) > 0 {
		if err := AppendCorpus(opts.Corpus, res.Violations); err != nil {
			return res, fmt.Errorf("conform: writing corpus: %w", err)
		}
		r.logf("wrote %d corpus record(s) to %s", len(res.Violations), opts.Corpus)
	}
	return res, nil
}
