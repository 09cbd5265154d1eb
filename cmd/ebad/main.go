// Command ebad is the epistemic query daemon: an HTTP service that
// answers formula queries over enumerated full-information systems,
// backed by a persistent snapshot store so a system is enumerated
// once and then served from memory or disk.
//
// Endpoints:
//
//	POST /v1/query          {"formula":"Cbox E0 -> C E0","n":3,"t":1,"mode":"crash"}
//	POST /v1/query/batch    {"queries":[{...},{...}]}, answered in request order
//	GET  /v1/systems        cache inventory and hit/miss statistics
//	GET  /healthz           liveness
//	GET  /metrics           Prometheus text exposition
//	GET  /debug/queries     in-flight and recent queries with stage timings
//	GET  /debug/trace/{id}  one trace's retained span/event stream
//	GET  /cluster/members   cluster mode only: the membership table
//
// Serve mode:
//
//	ebad -addr :8080 -cachedir ~/.cache/eba
//
// Cluster mode, set by a non-empty -peers (three such invocations make
// a fleet; each key is served by its consistent-hash ring owner):
//
//	ebad -addr :8081 -cachedir /tmp/n1 \
//	     -self n1 -peers 'n1=http://localhost:8081,n2=http://localhost:8082,n3=http://localhost:8083'
//
// ebad only serves; load is generated by go run ./cmd/ebabench.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/eventual-agreement/eba/internal/cluster"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebad:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cachedir = flag.String("cachedir", "", "snapshot store directory (empty = in-memory only)")
		maxMem   = flag.Int("maxmem", store.DefaultMaxMem, "max systems held in memory")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-query timeout (0 = none)")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace for in-flight queries")
		parallel = flag.Int("parallel", 0, "evaluator workers (0 = all cores, 1 = sequential)")

		traceRing     = flag.Int("trace-ring", 4096, "in-memory trace retention ring capacity for /debug/trace (0 = off)")
		slowLog       = flag.String("slowlog", "", "append slow queries as JSONL to this file (\"\" = off)")
		slowThreshold = flag.Duration("slow-threshold", 250*time.Millisecond, "latency above which a query lands in the slow log")
		incidentDir   = flag.String("incident-dir", "", "directory for trace-ring incident dumps on shed/drain/quarantine (default cachedir/incidents when -cachedir is set)")

		maxInflight  = flag.Int("max-inflight", 64, "admission: max concurrently executing queries (0 = unbounded)")
		perKey       = flag.Int("per-key", 4, "admission: max concurrent expensive queries per system key (0 = unbounded)")
		maxQueue     = flag.Int("max-queue", 256, "admission: max queries waiting for a slot (0 = 4x max-inflight)")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "admission: max wait for a slot before shedding 429")
		retryAfter   = flag.Duration("retry-after", time.Second, "admission: Retry-After hint on shed responses")

		self      = flag.String("self", "", "cluster: this node's name (must appear in -peers)")
		peersFlag = flag.String("peers", "", "cluster: full fleet as name=url,name=url,...; non-empty serves as a cluster node")
	)
	tel := telemetry.BindFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag.Parse stops at the first non-flag word, so every flag
		// after it would be silently dropped.
		fmt.Fprintf(os.Stderr, "ebad: unexpected argument %q; load generation lives in go run ./cmd/ebabench\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if err := tel.Start(); err != nil {
		return err
	}
	defer tel.Close()

	// The retention ring backs /debug/trace/{id} and incident dumps
	// even when no -tracefile is set; install it before serving.
	telemetry.SetRing(*traceRing)

	st, err := store.Open(*cachedir, *maxMem)
	if err != nil {
		return err
	}
	eng := service.NewEngine(st, *timeout)
	eng.SetParallelism(*parallel)
	srv := service.NewServer(eng)
	srv.SetAdmission(service.AdmissionConfig{
		MaxInflight:  *maxInflight,
		PerKey:       *perKey,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		RetryAfter:   *retryAfter,
	})
	incDir := *incidentDir
	if incDir == "" && *cachedir != "" {
		incDir = filepath.Join(*cachedir, "incidents")
	}
	if err := srv.SetObservability(service.ObservabilityConfig{
		SlowLogPath:   *slowLog,
		SlowThreshold: *slowThreshold,
		IncidentDir:   incDir,
	}); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *peersFlag != "" {
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			return err
		}
		cl, err := cluster.New(cluster.Config{Self: *self, Peers: peers})
		if err != nil {
			return err
		}
		cl.Attach(eng, srv, cl.Owner)
		cl.Start(ctx)
		fmt.Fprintf(os.Stderr, "ebad: cluster node %s, %d peers\n", *self, len(peers))
	}

	where := *cachedir
	if where == "" {
		where = "(memory only)"
	}
	fmt.Fprintf(os.Stderr, "ebad: listening on %s, cache %s\n", *addr, where)
	return srv.ListenAndServe(ctx, *addr, *grace)
}
