// Command ebacheck exhaustively verifies the paper's protocols over
// an enumerated full-information system: EBA conditions, the Theorem
// 5.3 optimality oracle, and the pairwise dominance matrix — for
// every protocol applicable to the chosen failure mode, including the
// knowledge-derived optimum constructed on the spot by the two-step
// method.
//
// Usage:
//
//	ebacheck -n 3 -t 1 -mode crash -h 3
//	ebacheck -n 3 -t 1 -mode omission -h 3
//	ebacheck -n 3 -t 1 -mode receiving-omission -h 2
//	ebacheck -n 3 -t 1 -mode general-omission -h 2
package main

import (
	"flag"
	"fmt"
	"os"

	eba "github.com/eventual-agreement/eba"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebacheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 3, "processors")
		t        = flag.Int("t", 1, "fault bound")
		modeName = flag.String("mode", "crash", "crash | omission | receiving-omission | general-omission")
		h        = flag.Int("h", 0, "horizon (default t+2)")
		limit    = flag.Int("limit", 2_000_000, "pattern limit (0 = unlimited)")
		parallel = flag.Int("parallel", 0, "evaluator workers (0 = all cores, 1 = sequential)")
		tel      = telemetry.BindFlags(flag.CommandLine)
	)
	flag.Parse()
	// Instrumentation is paid for only when something reads it.
	if tel.Metrics == "" && tel.TraceFile == "" && tel.Pprof == "" {
		telemetry.SetEnabled(false)
	}
	if err := tel.Start(); err != nil {
		return err
	}
	defer tel.Close()
	if *h == 0 {
		*h = *t + 2
	}

	mode, err := eba.ParseMode(*modeName)
	if err != nil {
		return err
	}

	params := eba.Params{N: *n, T: *t}
	fmt.Printf("enumerating %s system n=%d t=%d h=%d ...\n", mode, *n, *t, *h)
	eba.SetParallelism(*parallel)
	sys, err := eba.NewSystem(params, mode, *h, *limit)
	if err != nil {
		return err
	}
	fmt.Printf("  %d runs, %d points, %d distinct views\n\n", sys.NumRuns(), sys.NumPoints(), sys.Interner.Size())
	e := eba.NewEvaluator(sys)

	type entry struct {
		name string
		pair eba.Pair
		dec  *eba.DecisionTable
	}
	var pairs []entry
	if mode == eba.Crash {
		pairs = append(pairs,
			entry{name: "P0", pair: eba.P0Pair(*t)},
			entry{name: "P1", pair: eba.P1Pair(*t)},
			entry{name: "P0opt", pair: eba.P0OptPair()},
		)
	} else {
		chain := eba.Chain0SemanticPair(e)
		pairs = append(pairs,
			entry{name: "Chain0", pair: chain},
			entry{name: "F*", pair: eba.PrimeStep(e, chain, "F*")},
		)
	}
	pairs = append(pairs, entry{name: "TwoStep(FΛ)", pair: eba.TwoStep(e, eba.NeverDecide())})
	for i := range pairs {
		pairs[i].dec = eba.Decisions(sys, pairs[i].pair)
	}

	fmt.Printf("%-14s %-10s %-10s %-10s %-12s %s\n", "protocol", "decision", "agreement", "validity", "optimal", "worst case")
	for _, p := range pairs {
		dec := verdict(p.dec.CheckDecision())
		agr := verdict(p.dec.CheckWeakAgreement())
		val := verdict(p.dec.CheckWeakValidity())
		optOK, _ := eba.IsOptimal(e, p.pair)
		max, all := p.dec.MaxNonfaultyDecisionRound()
		worst := fmt.Sprintf("%d", max)
		if !all {
			worst = "undecided"
		}
		fmt.Printf("%-14s %-10s %-10s %-10s %-12v %s\n", p.name, dec, agr, val, optOK, worst)
	}

	fmt.Println("\ndominance matrix (row dominates column):")
	fmt.Printf("%-14s", "")
	for _, q := range pairs {
		fmt.Printf("%-14s", q.name)
	}
	fmt.Println()
	for _, p := range pairs {
		fmt.Printf("%-14s", p.name)
		for _, q := range pairs {
			cell := "-"
			if p.name != q.name {
				switch {
				case p.dec.StrictlyDominates(q.dec):
					cell = "strict"
				case p.dec.Dominates(q.dec):
					cell = "yes"
				default:
					cell = "no"
				}
			}
			fmt.Printf("%-14s", cell)
		}
		fmt.Println()
	}
	return nil
}

func verdict(err error) string {
	if err != nil {
		return "FAIL"
	}
	return "ok"
}
