// Command ebaconform runs the randomized conformance harness: seeded
// scenarios are executed on the live network runtime, replayed on the
// deterministic engine, and checked against the knowledge layer's
// prescriptions; every generated system is additionally checked
// against every applicable claim of the registry ebaexp runs.
//
// Scenarios span all four failure modes (crash, sending omission,
// receiving omission, general omission); -mode restricts the run to a
// comma-separated subset.
//
// Exit status is non-zero when any check fails; failures are appended
// to a JSONL corpus (-corpus) whose records replay by seed (plus the
// run's -mode filter, recorded in the replay hint):
//
//	ebaconform -seed <seed> -count 1 [-mode receiving-omission]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/eventual-agreement/eba/internal/conform"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

func main() { os.Exit(run()) }

// run is the command. It returns the exit status rather than exiting,
// so the deferred Close writes the -metrics snapshot on failing runs
// too.
func run() int {
	var (
		seed     = flag.Int64("seed", 1, "base seed; scenario i uses seed+i")
		count    = flag.Int("count", 100, "number of scenarios")
		budget   = flag.Duration("budget", 0, "wall-clock budget; scenarios beyond it are skipped (0 = none)")
		parallel = flag.Int("parallel", 0, "scenarios in flight (0 = min(4, GOMAXPROCS))")
		deadline = flag.Duration("deadline", 200*time.Millisecond, "live per-round receive deadline")
		corpus   = flag.String("corpus", "conform-corpus.jsonl", "JSONL failure corpus path (empty = don't write)")
		cacheDir = flag.String("cachedir", "", "snapshot store directory (empty = temp dir)")
		mutant   = flag.String("mutant", "", "test-only fault injection: law | oracle | differential | cluster | reconstruction | parity | prefix")
		modeList = flag.String("mode", "", "comma-separated failure-mode filter: crash | omission | receiving-omission | general-omission (empty = all)")
		quiet    = flag.Bool("q", false, "suppress progress lines")
	)
	tele := telemetry.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ebaconform:", err)
		return 2
	}
	defer tele.Close()

	var modes []failures.Mode
	if *modeList != "" {
		for _, name := range strings.Split(*modeList, ",") {
			m, err := failures.ParseMode(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "ebaconform:", err)
				return 2
			}
			modes = append(modes, m)
		}
	}

	opts := conform.Options{
		Seed:     *seed,
		Count:    *count,
		Modes:    modes,
		Budget:   *budget,
		Parallel: *parallel,
		Deadline: *deadline,
		CacheDir: *cacheDir,
		Corpus:   *corpus,
		Mutant:   *mutant,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	res, err := conform.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebaconform:", err)
		return 2
	}
	status := "PASS"
	if len(res.Violations) > 0 {
		status = "FAIL"
	}
	fmt.Printf("%s: %d scenarios (%d skipped), %d system keys, %d checks, %d violations in %v\n",
		status, res.Scenarios, res.Skipped, res.Keys, res.Checks, len(res.Violations), res.Elapsed.Round(time.Millisecond))
	for _, v := range res.Violations {
		fmt.Printf("  %s/%s seed=%d (%s n=%d t=%d h=%d cfg=%s): %s\n      replay: %s\n",
			v.Pillar, v.Law, v.Seed, v.Mode, v.N, v.T, v.Horizon, v.Config, v.Detail, v.Replay)
	}
	if len(res.Violations) > 0 {
		return 1
	}
	return 0
}
