package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// Hop headers. RoutedByHeader on a request marks it as already
// forwarded once — the receiving node must serve it locally, so a
// routing disagreement (stale liveness, skewed peer lists) costs one
// extra hop, never a loop. ServedByHeader on a response names the
// node that actually executed the query.
const (
	RoutedByHeader = "X-Eba-Routed-By"
	ServedByHeader = "X-Eba-Served-By"
	traceHeader    = "X-Eba-Trace-Id"
)

// Router is the cluster's traffic layer: it wraps a node's local
// service.Server handler, intercepts query traffic, and either serves
// locally (this node owns the key, the request already hopped once,
// or the owner is unreachable) or forwards to the ring owner. Every
// other endpoint — health, metrics, inventory, debug — passes through
// untouched, so a cluster node is a superset of a standalone daemon.
type Router struct {
	self    Node
	owner   func(slug string) string
	members *Membership
	srv     *service.Server
	resolve func(service.Request) (string, error)
	client  *http.Client
}

// NewRouter builds the routing layer for self over the fleet in
// members. owner names the node that owns a key slug — the unit of
// ownership — resolve maps a query request to its slug, and srv
// executes whatever this node keeps.
func NewRouter(self Node, owner func(slug string) string, members *Membership, srv *service.Server, resolve func(service.Request) (string, error)) *Router {
	return &Router{
		self:    self,
		owner:   owner,
		members: members,
		srv:     srv,
		resolve: resolve,
		client: &http.Client{
			Timeout:   5 * time.Minute,
			Transport: service.SharedTransport(),
		},
	}
}

// Owner returns the node the router sends a key slug to.
func (rt *Router) Owner(slug string) string { return rt.owner(slug) }

// Wrap is the service.Server.SetWrapper hook: it intercepts
// POST /v1/query and POST /v1/query/batch for routing, adds
// GET /cluster/members, and delegates everything else to the inner
// route table.
func (rt *Router) Wrap(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		rt.routeQuery(w, r, inner)
	})
	mux.HandleFunc("POST /v1/query/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.routeBatch(w, r, inner)
	})
	mux.HandleFunc("GET /cluster/members", rt.handleMembers)
	mux.Handle("/", inner)
	return mux
}

func (rt *Router) handleMembers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ //nolint:errcheck // the connection is gone; nothing to do
		"self":    rt.self.Name,
		"members": rt.members.Snapshot(),
	})
}

// serveLocal hands the (re-buffered) request to the inner handler and
// stamps this node as the executor.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, inner http.Handler) {
	w.Header().Set(ServedByHeader, rt.self.Name)
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	inner.ServeHTTP(w, r2)
}

// routeQuery decides one query's fate: local execution or one forward
// hop to the ring owner.
func (rt *Router) routeQuery(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Loop guard: a request that already hopped is served here, owner
	// or not. Correctness does not depend on ownership.
	if r.Header.Get(RoutedByHeader) != "" {
		rt.serveLocal(w, r, body, inner)
		return
	}
	var req service.Request
	if uerr := json.Unmarshal(body, &req); uerr != nil {
		// Malformed JSON: let the local server produce its canonical 400.
		rt.serveLocal(w, r, body, inner)
		return
	}
	slug, err := rt.resolve(req)
	if err != nil {
		rt.serveLocal(w, r, body, inner)
		return
	}
	owner := rt.Owner(slug)
	if owner == rt.self.Name {
		rt.serveLocal(w, r, body, inner)
		return
	}
	node, ok := rt.members.Lookup(owner)
	if !ok {
		rt.serveLocal(w, r, body, inner)
		return
	}
	if !rt.forward(w, r, node, "/v1/query", body) {
		// Dead peer fallback: the fleet answers even when the owner is
		// down; the key is simply computed (and cached) here too.
		rt.serveLocal(w, r, body, inner)
	}
}

// forward proxies body to node's path with hop and trace headers.
// Returns false on transport failure (no HTTP response), in which
// case nothing has been written to w and the caller may fall back;
// any HTTP response, including errors, is relayed as-is.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, node Node, path string, body []byte) bool {
	traceID := r.Header.Get(traceHeader)
	if !telemetry.ValidTraceID(traceID) {
		traceID = telemetry.NewTraceID()
	}
	ctx := telemetry.ContextWithTraceID(r.Context(), traceID)
	ctx, sp := telemetry.StartSpan(ctx, "cluster.forward")
	ok := "true"
	defer func() { sp.End(telemetry.L("to", node.Name), telemetry.L("ok", ok)) }()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.URL+path, bytes.NewReader(body))
	if err != nil {
		ok = "false"
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RoutedByHeader, rt.self.Name)
	// One trace ID spans both hops, so each node's retention ring holds
	// its half of the query and /debug/trace stitches them together.
	req.Header.Set(traceHeader, traceID)
	resp, err := rt.client.Do(req)
	if err != nil {
		ok = "false"
		rt.members.MarkDead(node.Name)
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", traceHeader, ServedByHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if w.Header().Get(ServedByHeader) == "" {
		// Peer predates the header (or is standalone): the owner we
		// forwarded to is the executor.
		w.Header().Set(ServedByHeader, node.Name)
	}
	w.Header().Set(RoutedByHeader, rt.self.Name)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // the connection is gone; nothing to do
	return true
}

// batchGroup is the slice of a batch owned by one node.
type batchGroup struct {
	node    Node
	local   bool
	indices []int
	reqs    []service.Request
}

// routeBatch scatters a batch across owning nodes and gathers the
// results back in request order. Groups fan out concurrently; the
// local group runs under this node's admission caps, remote groups
// under their owners'. A group whose owner fails mid-flight falls
// back to local execution, so a peer crash degrades locality, not
// availability.
func (rt *Router) routeBatch(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if r.Header.Get(RoutedByHeader) != "" {
		rt.serveLocal(w, r, body, inner)
		return
	}
	var breq service.BatchRequest
	if uerr := json.Unmarshal(body, &breq); uerr != nil || len(breq.Queries) == 0 || len(breq.Queries) > service.MaxBatchItems {
		// Shape errors get the local server's canonical diagnostics.
		rt.serveLocal(w, r, body, inner)
		return
	}

	traceID := r.Header.Get(traceHeader)
	if !telemetry.ValidTraceID(traceID) {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set(traceHeader, traceID)
	w.Header().Set(ServedByHeader, rt.self.Name)
	ctx := telemetry.ContextWithTraceID(r.Context(), traceID)
	ctx, sp := telemetry.StartSpan(ctx, "cluster.batch")
	defer sp.End()

	// Group items by owning node, preserving each item's original index.
	groups := make(map[string]*batchGroup)
	for i, q := range breq.Queries {
		owner := rt.self.Name
		if slug, rerr := rt.resolve(q); rerr == nil {
			owner = rt.Owner(slug)
		}
		g, ok := groups[owner]
		if !ok {
			node, known := rt.members.Lookup(owner)
			g = &batchGroup{node: node, local: !known || owner == rt.self.Name}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
		g.reqs = append(g.reqs, q)
	}

	start := time.Now()
	results := make([]service.BatchItem, len(breq.Queries))
	done := make(chan *batchGroup)
	for _, g := range groups {
		go func(g *batchGroup) {
			items := rt.executeGroup(ctx, g, traceID)
			for j, idx := range g.indices {
				results[idx] = items[j]
			}
			done <- g
		}(g)
	}
	for range groups {
		<-done
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(service.BatchResponse{ //nolint:errcheck // the connection is gone; nothing to do
		Results:   results,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Node:      rt.self.Name,
	})
}

// executeGroup runs one owner's slice of the batch: locally for this
// node's keys, via one forwarded sub-batch for a peer's. Peer
// failures (transport errors or non-200s) retreat to local execution.
func (rt *Router) executeGroup(ctx context.Context, g *batchGroup, traceID string) []service.BatchItem {
	if g.local {
		return rt.srv.ExecuteBatch(ctx, g.reqs)
	}
	items, err := rt.forwardBatch(ctx, g.node, g.reqs, traceID)
	if err != nil {
		rt.members.MarkDead(g.node.Name)
		return rt.srv.ExecuteBatch(ctx, g.reqs)
	}
	return items
}

// forwardBatch posts one owner's sub-batch with the hop header set, so
// the peer executes locally instead of re-scattering.
func (rt *Router) forwardBatch(ctx context.Context, node Node, reqs []service.Request, traceID string) ([]service.BatchItem, error) {
	body, err := json.Marshal(service.BatchRequest{Queries: reqs})
	if err != nil {
		return nil, err
	}
	ctx, sp := telemetry.StartSpan(ctx, "cluster.forward_batch")
	defer sp.End(telemetry.L("to", node.Name))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.URL+"/v1/query/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RoutedByHeader, rt.self.Name)
	req.Header.Set(traceHeader, traceID)
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &service.StatusError{StatusCode: resp.StatusCode, Body: string(bytes.TrimSpace(data)), Attempts: 1}
	}
	var out service.BatchResponse
	if uerr := json.Unmarshal(data, &out); uerr != nil {
		return nil, uerr
	}
	if len(out.Results) != len(reqs) {
		return nil, io.ErrUnexpectedEOF
	}
	return out.Results, nil
}
