// Command ebaexp reproduces the paper's results: it runs the
// experiment suite (E1-E16 and E18-E21 plus ablations A1-A4, see
// DESIGN.md) and prints one table per experiment with a PASS/FAIL
// verdict. The experiments built from the claims registry print one
// row per claim, failure mode and size: pass, FAIL with a
// counterexample, or n/a with the reason.
//
// Usage:
//
//	ebaexp            # run everything
//	ebaexp -e E6,E9   # run selected experiments
//	ebaexp -list      # list experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/eventual-agreement/eba/internal/exp"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

func main() {
	var (
		ids      = flag.String("e", "", "comma-separated experiment IDs (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of tables")
		parallel = flag.Int("parallel", 0, "evaluator workers (0 = all cores, 1 = sequential)")
		tel      = telemetry.BindFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := tel.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ebaexp:", err)
		os.Exit(1)
	}
	defer tel.Close()
	knowledge.SetDefaultParallelism(*parallel) // every evaluator the experiments create; numbers are identical at any setting

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if *ids == "" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := exp.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ebaexp: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	var results []*exp.Result
	for _, e := range selected {
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ebaexp: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		if *jsonOut {
			results = append(results, res)
		} else {
			exp.Render(os.Stdout, res)
		}
		if !res.Pass {
			failed++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "ebaexp:", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ebaexp: %d experiment(s) failed\n", failed)
		tel.Close() // os.Exit skips defers; still emit the snapshot
		os.Exit(1)
	}
}
