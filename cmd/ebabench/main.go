// Command ebabench is the repository's benchmark: four workloads,
// end-to-end metrics measured from outside the real ebacheck and ebad
// binaries, and a traced in-process pass that attributes time to
// layers. See internal/bench/README.md.
//
// Usage:
//
//	ebabench -seed 1                 every workload, both passes, one report
//	ebabench -selfcheck              the full set twice; fails if a metric moves past its bound
//	ebabench -workload query-cached  one workload, end-to-end pass
//	ebabench -workload query-cached -trace 1   its per-layer pass
//
// With -workload the last line of stdout is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is
// non-zero when any answer was wrong, refused or missing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/eventual-agreement/eba/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ebabench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ebabench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run one workload in this process: cold-verdict | query-cached | query-batch | query-churn")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds   = fs.Int("seconds", bench.RunSeconds, "measurement length; iteration and request counts are functions of it")
		trace     = fs.Int("trace", 0, "0 = end-to-end pass (tracing off), 1 = in-process per-layer pass")
		quick     = fs.Bool("quick", false, "toy sizes (n=3 keys, ~100 requests, 1 iteration) for smoke tests")
		selfcheck = fs.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
		dir       = fs.String("dir", "", "directory for binaries, caches, result and span files (default .bench_build in the module root)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	o := bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Quick: *quick, Dir: *dir}
	switch {
	case *workload != "":
		res, err := bench.RunOne(o, stdout)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", *workload, res.Failed, res.Attempted)
		}
		return nil
	case *selfcheck:
		return bench.SelfCheck(o, stdout)
	default:
		rep, err := bench.RunAll(o, stdout)
		if err != nil {
			return err
		}
		if !rep.Correct() {
			return fmt.Errorf("a pass reported failed operations")
		}
		return nil
	}
}
