// Command ebaq is a model-checking calculator for the paper's logic:
// it evaluates a formula at every point of a full-information system,
// reporting validity, the count of satisfying points, and a sample
// counterexample. It shares its query-execution path with the ebad
// daemon, so -cachedir reuses (and feeds) the same snapshot store.
//
// Formula syntax (see the knowledge package's Parse):
//
//	atoms:   E0 E1 initI=V nfI knowsI=V true false
//	boolean: ! & | -> <->  (parentheses group)
//	modal:   KI BI E C Cbox Cdia box dia alw ev
//
// Examples:
//
//	ebaq -f 'Cbox E0 -> C E0'                      # Sec 3.3: valid
//	ebaq -f 'C E0 -> Cbox E0'                      # ... the converse fails
//	ebaq -n 3 -t 1 -mode omission -f 'K0 E0 -> B0 E0'
//	ebaq -json -cachedir /tmp/eba -f 'knows1=0 -> K1 E0'
//
// With -server, the query goes to a running ebad daemon instead of
// being evaluated in-process, through the shared retrying client: 429
// and 503 sheds are retried with backoff, honoring Retry-After, until
// the retry budget runs out (tune with -retries/-retry-budget):
//
//	ebaq -server http://localhost:8080 -f 'Cbox E0 -> C E0'
//
// -f repeats; multiple formulas against a -server go over the wire as
// one POST /v1/query/batch:
//
//	ebaq -server http://localhost:8080 -f 'Cbox E0 -> C E0' -f 'C E0 -> Cbox E0'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// formulaList collects repeated -f flags.
type formulaList []string

func (l *formulaList) String() string     { return fmt.Sprint(*l) }
func (l *formulaList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebaq:", err)
		os.Exit(1)
	}
}

func run() error {
	var formulas formulaList
	var (
		n        = flag.Int("n", 3, "processors")
		t        = flag.Int("t", 1, "fault bound")
		modeName = flag.String("mode", "crash", "crash | omission | receiving-omission | general-omission")
		h        = flag.Int("h", 0, "horizon (default t+2)")
		limit    = flag.Int("limit", 2_000_000, "omission pattern limit")
		jsonOut  = flag.Bool("json", false, "emit the query result as JSON")
		cachedir = flag.String("cachedir", "", "snapshot store directory (empty = no persistence)")
		parallel = flag.Int("parallel", 0, "evaluator workers (0 = all cores, 1 = sequential)")
		server   = flag.String("server", "", "query a running ebad daemon at this base URL instead of evaluating in-process")
		retries  = flag.Int("retries", -1, "server mode: max retries after the first attempt (-1 = the client's default, 4)")
		budget   = flag.Duration("retry-budget", 0, "server mode: wall-clock budget across attempts (0 = the client's default, 30s)")
		traceID  = flag.String("trace-id", "", "server mode: send this trace ID with the query (default: minted per query), for correlating with the daemon's /debug/trace/{id}")
	)
	flag.Var(&formulas, "f", "formula to evaluate (repeatable; multiple formulas with -server go as one batch)")
	flag.Parse()
	if len(formulas) == 0 {
		return fmt.Errorf("missing -f formula")
	}
	reqs := make([]service.Request, len(formulas))
	for i, f := range formulas {
		reqs[i] = service.Request{
			Formula: f,
			N:       *n,
			T:       *t,
			Mode:    *modeName,
			Horizon: *h,
			Limit:   *limit,
		}
	}

	var resps []*service.Response
	if *server != "" {
		client := service.NewClient(*server)
		if *retries >= 0 {
			client.MaxRetries = *retries
		}
		if *budget > 0 {
			client.Budget = *budget
		}
		ctx := context.Background()
		if *traceID != "" {
			if !telemetry.ValidTraceID(*traceID) {
				return fmt.Errorf("bad -trace-id %q (want 1-64 chars of [0-9a-zA-Z._-])", *traceID)
			}
			ctx = telemetry.ContextWithTraceID(ctx, *traceID)
		}
		if len(reqs) == 1 {
			resp, err := client.Query(ctx, reqs[0])
			if err != nil {
				return err
			}
			resps = append(resps, resp)
		} else {
			batch, err := client.QueryBatch(ctx, reqs)
			if err != nil {
				return err
			}
			for i, item := range batch.Results {
				if item.Error != "" {
					return fmt.Errorf("batch item %d (%q): %s (status %d)",
						i, reqs[i].Formula, item.Error, item.Status)
				}
				resps = append(resps, item.Response)
			}
		}
	} else {
		st, oerr := store.Open(*cachedir, 0)
		if oerr != nil {
			return oerr
		}
		eng := service.NewEngine(st, 0)
		eng.SetParallelism(*parallel)
		for _, req := range reqs {
			resp, err := eng.Execute(context.Background(), req)
			if err != nil {
				return err
			}
			resps = append(resps, resp)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(resps) == 1 {
			return enc.Encode(resps[0])
		}
		return enc.Encode(resps)
	}

	invalid := 0
	for i, resp := range resps {
		if i > 0 {
			fmt.Println()
		}
		if !printResult(resp) {
			invalid++
		}
	}
	if len(resps) > 1 {
		fmt.Printf("\n%d/%d valid\n", len(resps)-invalid, len(resps))
	}
	return nil
}

// printResult renders one query result and reports its validity.
func printResult(resp *service.Response) bool {
	sys := resp.System
	fmt.Printf("formula:  %s\n", resp.Formula)
	fmt.Printf("system:   %s n=%d t=%d h=%d (%d runs, %d points; %s)\n",
		sys.Mode, sys.N, sys.T, sys.Horizon, sys.Runs, sys.Points, sys.Origin)
	fmt.Printf("true at:  %d / %d points\n", resp.TruePoints, resp.TotalPoints)
	if p := resp.Provenance; p != nil {
		if p.TraceID != "" {
			fmt.Printf("trace:    %s\n", p.TraceID)
		}
		fmt.Printf("latency:  %.3fms (queue %.3f, load %.3f, eval %.3f, scan %.3f); system %s, result %s, %d workers\n",
			resp.ElapsedMS, p.Stages.QueueMS, p.Stages.LoadMS, p.Stages.EvalMS, p.Stages.ScanMS,
			p.SystemOrigin, p.ResultOrigin, p.Parallelism)
		if p.Eval != nil && p.Eval.FixedPointTotal() > 0 {
			fmt.Printf("fixpoint: %d iterations\n", p.Eval.FixedPointTotal())
		}
	}
	if resp.Valid {
		fmt.Println("verdict:  VALID")
		return true
	}
	fmt.Println("verdict:  not valid")
	if ce := resp.Counterexample; ce != nil {
		fmt.Printf("fails at: time %d of run %d (cfg %s, %s; point %d)\n",
			ce.Time, ce.Run, ce.Config, ce.Pattern, ce.Point)
	}
	return false
}
