package conform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eventual-agreement/eba/internal/cluster"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
)

// The cluster pillar checks the distribution layer against the
// single-node engine: a query answered through a three-node fleet must
// carry the same verdict as a direct engine call (routing and
// replication are transparent to semantics), and must be answered by
// the node the hash ring names as the key's owner (routing actually
// routes). Batches must additionally come back in order. The fleet is
// in-process — three full server stacks over loopback HTTP — and boots
// lazily on the first scenario that needs it.

// clusterFormulas are the probe formulas each key is queried with
// through the fleet; verdicts are compared against the shared direct
// engine formula by formula.
var clusterFormulas = []string{"E0", "C E0", "Cbox E0 -> C E0"}

// clusterClient is shared by all fleet checks so probe traffic reuses
// connections like a real client would.
var clusterClient = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: service.SharedTransport(),
}

// lateHandler lets the fixture start listeners before the cluster —
// which needs every peer's URL — is constructed.
type lateHandler struct {
	inner atomic.Value // http.Handler
}

func (h *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if inner, ok := h.inner.Load().(http.Handler); ok {
		inner.ServeHTTP(w, r)
		return
	}
	http.Error(w, "fleet booting", http.StatusServiceUnavailable)
}

// clusterNode is one fleet member's client-visible surface.
type clusterNode struct {
	name string
	url  string
}

// clusterFixture is the lazily-booted fleet shared by every scenario
// in a run. err sticks: if the fleet cannot boot, every scenario
// reports the same boot violation rather than retrying.
type clusterFixture struct {
	once    sync.Once
	err     error
	nodes   []clusterNode
	ring    *cluster.Ring
	alive   func(string) bool
	closers []func()
}

// close shuts the fleet's listeners down; safe when boot never ran.
func (f *clusterFixture) close() {
	for _, c := range f.closers {
		c()
	}
}

// misroute returns the successor of the true ring owner for every
// slug — the MutantCluster fault. Every key lands on a provably wrong
// node, which the served-by check must catch.
func misroute(ring *cluster.Ring) func(string) string {
	names := ring.Nodes()
	return func(slug string) string {
		owner := ring.Owner(slug)
		for i, n := range names {
			if n == owner {
				return names[(i+1)%len(names)]
			}
		}
		return owner
	}
}

// boot stands up n in-process daemons under dir, each with its own
// store, wired into one ring. mutate attaches every router with the
// misrouting owner function instead of the ring's.
func (f *clusterFixture) boot(dir string, mutate bool) error {
	const n = 3
	handlers := make([]*lateHandler, n)
	peers := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		handlers[i] = &lateHandler{}
		ts := httptest.NewServer(handlers[i])
		f.closers = append(f.closers, ts.Close)
		name := fmt.Sprintf("cn%d", i+1)
		peers[i] = cluster.Node{Name: name, URL: ts.URL}
		f.nodes = append(f.nodes, clusterNode{name: name, url: ts.URL})
	}
	for i, p := range peers {
		st, err := store.Open(filepath.Join(dir, "cluster", p.Name), 8)
		if err != nil {
			return fmt.Errorf("fleet store %s: %w", p.Name, err)
		}
		eng := service.NewEngine(st, time.Minute)
		srv := service.NewServer(eng)
		cl, err := cluster.New(cluster.Config{Self: p.Name, Peers: peers, ProbeInterval: time.Hour})
		if err != nil {
			return fmt.Errorf("fleet node %s: %w", p.Name, err)
		}
		owner := cl.Owner
		if mutate {
			owner = misroute(cl.Ring)
		}
		cl.Attach(eng, srv, st, owner)
		if i == 0 {
			f.ring = cl.Ring
			f.alive = cl.Members.Alive
		}
		handlers[i].inner.Store(srv.Handler())
	}
	return nil
}

// fleet boots the fixture on first use and returns it.
func (r *Runner) fleet() (*clusterFixture, error) {
	f := &r.cluster
	f.once.Do(func() {
		f.err = f.boot(r.store.Dir(), r.opts.Mutant == MutantCluster)
	})
	return f, f.err
}

// clusterPillar runs the cluster checks once per key (see perKey).
// Keys with t=0 are skipped for the same reason the service law skips
// them: the query surface's zero-value defaulting makes them
// unaddressable.
func (r *Runner) clusterPillar(sc Scenario) ([]Violation, int) {
	if sc.T == 0 {
		return nil, 0
	}
	return r.perKey(r.clusterKeys, sc.Key(), func() ([]Violation, int) { return r.runClusterLaw(sc) })
}

// runClusterLaw drives sc's key through the fleet: a routed single
// query and a routed batch, each checked for ownership, provenance,
// and verdict agreement with the direct engine.
func (r *Runner) runClusterLaw(sc Scenario) (vs []Violation, checks int) {
	fail := func(law, detail string) {
		vs = append(vs, violationOf(sc, "cluster", law, detail))
	}
	f, err := r.fleet()
	if err != nil {
		checks++
		fail("cluster:boot", err.Error())
		return vs, checks
	}
	key := sc.Key()
	slug := key.Slug()
	r.logf("key %s: checking cluster pillar (first scenario %s)", slug, sc.Desc())

	// Ground truth from the shared single-node engine.
	want := make([]*service.Response, len(clusterFormulas))
	for i, formula := range clusterFormulas {
		resp, err := r.engine.Execute(context.Background(), clusterRequest(sc, key.Limit, formula))
		if err != nil {
			checks++
			fail("cluster:direct", fmt.Sprintf("direct engine %q: %v", formula, err))
			return vs, checks
		}
		want[i] = resp
	}

	owner := f.ring.OwnerAlive(slug, f.alive)
	// Enter through a non-owner so the check always exercises a
	// forward, not just local serving.
	entry := f.nodes[0]
	for _, node := range f.nodes {
		if node.name != owner {
			entry = node
			break
		}
	}

	// Routed single query: served by the ring owner, with matching
	// provenance and the direct engine's verdict.
	checks++
	hdr, body, err := clusterPost(entry.url+"/v1/query", clusterRequest(sc, key.Limit, clusterFormulas[0]))
	if err != nil {
		fail("cluster:query", err.Error())
	} else {
		var got service.Response
		if err := json.Unmarshal(body, &got); err != nil {
			fail("cluster:query", fmt.Sprintf("bad response body: %v", err))
		} else {
			checks++
			if served := hdr.Get(cluster.ServedByHeader); served != owner {
				fail("cluster:owner", fmt.Sprintf(
					"key %s entered at %s was served by %q; ring owner is %q",
					slug, entry.name, served, owner))
			}
			checks++
			if got.Provenance == nil || got.Provenance.Node != owner {
				node := "<none>"
				if got.Provenance != nil {
					node = got.Provenance.Node
				}
				fail("cluster:owner", fmt.Sprintf(
					"key %s provenance names node %q; ring owner is %q", slug, node, owner))
			}
			checks++
			if d := verdictDiff(want[0], &got); d != "" {
				fail("cluster:decision", fmt.Sprintf(
					"routed %q on %s disagrees with direct engine: %s",
					clusterFormulas[0], slug, d))
			}
		}
	}

	// Routed batch: order preserved, each item owned and agreeing.
	reqs := make([]service.Request, len(clusterFormulas))
	for i, formula := range clusterFormulas {
		reqs[i] = clusterRequest(sc, key.Limit, formula)
	}
	checks++
	_, body, err = clusterPost(entry.url+"/v1/query/batch", service.BatchRequest{Queries: reqs})
	if err != nil {
		fail("cluster:batch", err.Error())
		return vs, checks
	}
	var batch service.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		fail("cluster:batch", fmt.Sprintf("bad batch body: %v", err))
		return vs, checks
	}
	if len(batch.Results) != len(reqs) {
		fail("cluster:batch", fmt.Sprintf("%d results for %d queries", len(batch.Results), len(reqs)))
		return vs, checks
	}
	for i, item := range batch.Results {
		checks++
		switch {
		case item.Error != "":
			fail("cluster:batch", fmt.Sprintf(
				"item %d (%q) failed: %s (status %d)", i, clusterFormulas[i], item.Error, item.Status))
		case item.Response == nil || item.Response.Provenance == nil:
			fail("cluster:batch", fmt.Sprintf("item %d (%q): no provenance", i, clusterFormulas[i]))
		case item.Response.Provenance.Key != slug:
			fail("cluster:batch", fmt.Sprintf(
				"item %d answered for key %s, want %s — order not preserved",
				i, item.Response.Provenance.Key, slug))
		case item.Response.Provenance.Node != owner:
			fail("cluster:owner", fmt.Sprintf(
				"batch item %d for key %s executed on %q; ring owner is %q",
				i, slug, item.Response.Provenance.Node, owner))
		default:
			if d := verdictDiff(want[i], item.Response); d != "" {
				fail("cluster:decision", fmt.Sprintf(
					"batched %q on %s disagrees with direct engine: %s",
					clusterFormulas[i], slug, d))
			}
		}
	}
	return vs, checks
}

// clusterRequest is the query-surface request addressing sc's key.
func clusterRequest(sc Scenario, limit int, formula string) service.Request {
	return service.Request{
		Formula: formula, N: sc.N, T: sc.T,
		Mode: sc.Mode.String(), Horizon: sc.Horizon, Limit: limit,
	}
}

// verdictDiff compares the semantic fields of two responses and
// returns a human-readable diff, or "" when they agree.
func verdictDiff(want, got *service.Response) string {
	if want.Valid != got.Valid || want.TruePoints != got.TruePoints || want.TotalPoints != got.TotalPoints {
		return fmt.Sprintf("valid=%v/%v true=%d/%d total=%d/%d",
			got.Valid, want.Valid, got.TruePoints, want.TruePoints, got.TotalPoints, want.TotalPoints)
	}
	return ""
}

// clusterPost posts v as JSON and returns the response headers and
// body; non-200 statuses are errors.
func clusterPost(url string, v any) (http.Header, []byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, nil, err
	}
	resp, err := clusterClient.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return resp.Header, body, nil
}
