package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"github.com/eventual-agreement/eba/internal/service"
)

// distinctKeyRequests returns n requests resolving to n distinct
// system keys (omission mode with distinct enumeration limits), all
// cheap to enumerate.
func distinctKeyRequests(n int) []service.Request {
	reqs := make([]service.Request, n)
	for i := range reqs {
		reqs[i] = service.Request{Formula: "E0", Mode: "omission", Limit: 400 + i}
	}
	return reqs
}

// slugOf resolves a request's key slug through a node's engine.
func slugOf(t *testing.T, fn *fleetNode, req service.Request) string {
	t.Helper()
	key, _, err := fn.eng.Resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return key.Slug()
}

// postJSON posts v to url and returns the response with its body read.
func postJSON(t *testing.T, url string, v any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRoutedQueryServedByOwner is the tentpole's core contract: a
// query posted to any node is answered by the ring owner of its key,
// with the hop visible in headers and the executing node recorded in
// provenance.
func TestRoutedQueryServedByOwner(t *testing.T) {
	fleet := startFleet(t, 3)
	entry := fleet[0]
	for _, req := range distinctKeyRequests(6) {
		slug := slugOf(t, entry, req)
		wantOwner := entry.router.Owner(slug)
		resp, data := postJSON(t, entry.url+"/v1/query", req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", slug, resp.StatusCode, data)
		}
		if got := resp.Header.Get(ServedByHeader); got != wantOwner {
			t.Fatalf("query %s: served by %q, ring owner is %q", slug, got, wantOwner)
		}
		if wantOwner != entry.name {
			if got := resp.Header.Get(RoutedByHeader); got != entry.name {
				t.Fatalf("forwarded query %s: routed-by %q, want %q", slug, got, entry.name)
			}
		}
		var out service.Response
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("query %s: bad body: %v", slug, err)
		}
		if out.Provenance == nil || out.Provenance.Node != wantOwner {
			t.Fatalf("query %s: provenance node %+v, want %q", slug, out.Provenance, wantOwner)
		}
		if out.TotalPoints == 0 {
			t.Fatalf("query %s: evaluated over zero points: %s", slug, data)
		}
	}
}

// TestLoopGuard: a request carrying the hop header is served locally
// even by a non-owner, so two nodes with divergent liveness views
// bounce a query at most once.
func TestLoopGuard(t *testing.T) {
	fleet := startFleet(t, 3)
	req := distinctKeyRequests(1)[0]
	slug := slugOf(t, fleet[0], req)
	// Find a node that does NOT own the key.
	var nonOwner *fleetNode
	owner := fleet[0].router.Owner(slug)
	for _, fn := range fleet {
		if fn.name != owner {
			nonOwner = fn
			break
		}
	}
	resp, data := postJSON(t, nonOwner.url+"/v1/query", req,
		map[string]string{RoutedByHeader: "elsewhere"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(ServedByHeader); got != nonOwner.name {
		t.Fatalf("hopped request served by %q, want local %q", got, nonOwner.name)
	}
}

// TestTraceIDPropagatesAcrossHop: the client's trace ID must survive
// the forward so both nodes' retention rings file their halves of the
// query under one ID.
func TestTraceIDPropagatesAcrossHop(t *testing.T) {
	fleet := startFleet(t, 3)
	req := distinctKeyRequests(1)[0]
	slug := slugOf(t, fleet[0], req)
	owner := fleet[0].router.Owner(slug)
	var entry *fleetNode
	for _, fn := range fleet {
		if fn.name != owner {
			entry = fn
			break
		}
	}
	const traceID = "0123456789abcdef0123456789abcdef"
	resp, data := postJSON(t, entry.url+"/v1/query", req,
		map[string]string{"X-Eba-Trace-Id": traceID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Eba-Trace-Id"); got != traceID {
		t.Fatalf("trace id %q did not survive the hop (got %q)", traceID, got)
	}
	var out service.Response
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Provenance == nil || out.Provenance.TraceID != traceID {
		t.Fatalf("provenance trace %+v, want %q", out.Provenance, traceID)
	}
}

// TestBatchFanout: one batch posted to one node scatters across the
// fleet by ownership and gathers in order, every item carrying the
// provenance of the node that executed it.
func TestBatchFanout(t *testing.T) {
	fleet := startFleet(t, 3)
	entry := fleet[0]
	reqs := distinctKeyRequests(12)
	resp, data := postJSON(t, entry.url+"/v1/query/batch", service.BatchRequest{Queries: reqs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out service.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(reqs) {
		t.Fatalf("got %d results for %d queries", len(out.Results), len(reqs))
	}
	if out.Node != entry.name {
		t.Fatalf("batch node %q, want entry %q", out.Node, entry.name)
	}
	nodesSeen := map[string]bool{}
	for i, item := range out.Results {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s (status %d)", i, item.Error, item.Status)
		}
		slug := slugOf(t, entry, reqs[i])
		wantOwner := entry.router.Owner(slug)
		if item.Response.Provenance == nil || item.Response.Provenance.Node != wantOwner {
			t.Fatalf("item %d (%s): provenance %+v, want node %q",
				i, slug, item.Response.Provenance, wantOwner)
		}
		// Order preserved: the response echoes its request's key.
		if item.Response.Provenance.Key != slug {
			t.Fatalf("item %d answered for key %s, want %s", i, item.Response.Provenance.Key, slug)
		}
		nodesSeen[item.Response.Provenance.Node] = true
	}
	if len(nodesSeen) < 2 {
		t.Fatalf("12 distinct keys all landed on %v; fan-out did not scatter", nodesSeen)
	}
}

// TestRoutedKeysLiveOnlyOnOwner: single and batch queries entering
// at non-owners leave each key's system in memory and on disk at its
// ring owner and nowhere else. A node therefore misses only on keys it
// owns, which is why no node ever needs a peer's snapshot.
func TestRoutedKeysLiveOnlyOnOwner(t *testing.T) {
	fleet := startFleet(t, 3)
	reqs := distinctKeyRequests(12)
	owners := make([]string, len(reqs))
	for i, req := range reqs {
		owners[i] = fleet[0].router.Owner(slugOf(t, fleet[0], req))
	}

	// Singles: each of the first six keys enters at a node that does
	// not own it.
	for i, req := range reqs[:6] {
		entry := fleet[0]
		for _, fn := range fleet {
			if fn.name != owners[i] {
				entry = fn
				break
			}
		}
		resp, data := postJSON(t, entry.url+"/v1/query", req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d via %s: status %d: %s", i, entry.name, resp.StatusCode, data)
		}
	}
	// Batches: every node posts the last six keys it does not own.
	for _, entry := range fleet {
		var batch []service.Request
		for i, req := range reqs[6:] {
			if owners[6+i] != entry.name {
				batch = append(batch, req)
			}
		}
		if len(batch) == 0 {
			continue
		}
		resp, data := postJSON(t, entry.url+"/v1/query/batch", service.BatchRequest{Queries: batch}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch via %s: status %d: %s", entry.name, resp.StatusCode, data)
		}
		var out service.BatchResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		for j, item := range out.Results {
			if item.Error != "" {
				t.Fatalf("batch via %s, item %d: %s", entry.name, j, item.Error)
			}
		}
	}

	for i, req := range reqs {
		key, _, err := fleet[0].eng.Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range fleet {
			onDisk := false
			for _, name := range fn.st.DiskSnapshots() {
				onDisk = onDisk || name == key.Slug()+".eba"
			}
			want := fn.name == owners[i]
			if fn.st.CachedInMemory(key) != want || onDisk != want {
				t.Errorf("key %s on %s (owner %s): in memory %v, on disk %v, want %v",
					key.Slug(), fn.name, owners[i], fn.st.CachedInMemory(key), onDisk, want)
			}
		}
	}
}

// TestDeadPeerFallback: when a key's owner is down, any node still
// answers the query locally — the fleet degrades locality, not
// availability — and single-flight traffic marks the peer dead for
// subsequent routing.
func TestDeadPeerFallback(t *testing.T) {
	fleet := startFleet(t, 3)
	entry := fleet[0]
	reqs := distinctKeyRequests(8)
	// Find a request owned by a peer (not entry), then kill that peer.
	var victim *fleetNode
	var req service.Request
	for _, r := range reqs {
		owner := entry.router.Owner(slugOf(t, entry, r))
		if owner != entry.name {
			req = r
			for _, fn := range fleet {
				if fn.name == owner {
					victim = fn
				}
			}
			break
		}
	}
	if victim == nil {
		t.Fatal("no peer-owned key among the probes")
	}
	victim.ts.Close()

	resp, data := postJSON(t, entry.url+"/v1/query", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(ServedByHeader); got != entry.name {
		t.Fatalf("fallback served by %q, want local %q", got, entry.name)
	}
	if entry.cluster.Members.Alive(victim.name) {
		t.Fatal("failed forward must mark the peer dead")
	}
	// Second query routes straight to a live owner without the failed
	// forward (the dead node is now filtered at ring walk).
	if owner := entry.router.Owner(slugOf(t, entry, req)); owner == victim.name {
		t.Fatalf("ring still routes to dead node %s", victim.name)
	}

	// Batch fan-out with a dead owner: the group falls back locally and
	// every item still succeeds.
	fleet[1].ts.Close() // leave only entry alive
	entry.cluster.Members.MarkDead(fleet[1].name)
	resp, data = postJSON(t, entry.url+"/v1/query/batch", service.BatchRequest{Queries: reqs}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch fallback status %d: %s", resp.StatusCode, data)
	}
	var out service.BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Results {
		if item.Error != "" {
			t.Fatalf("survivor batch item %d failed: %s", i, item.Error)
		}
		if node := item.Response.Provenance.Node; node != entry.name {
			t.Fatalf("item %d executed on %q with fleet down, want %q", i, node, entry.name)
		}
	}
}

// TestClusterMembersEndpoint: the wrapper adds GET /cluster/members.
func TestClusterMembersEndpoint(t *testing.T) {
	fleet := startFleet(t, 3)
	resp, err := http.Get(fleet[0].url + "/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Self    string         `json:"self"`
		Members []MemberStatus `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Self != fleet[0].name || len(body.Members) != 3 {
		t.Fatalf("members body: %+v", body)
	}
}

// TestNonQueryEndpointsPassThrough: the router must not intercept
// health, metrics, or inventory.
func TestNonQueryEndpointsPassThrough(t *testing.T) {
	fleet := startFleet(t, 2)
	for _, path := range []string{"/healthz", "/metrics", "/v1/systems"} {
		resp, err := http.Get(fleet[0].url + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestRoutingAgreement: every node computes the same owner for every
// key — the property that lets the cluster run without a coordinator.
func TestRoutingAgreement(t *testing.T) {
	fleet := startFleet(t, 3)
	for i := 0; i < 100; i++ {
		slug := fmt.Sprintf("omission-n3-t1-h3-l%d", 400+i)
		want := fleet[0].router.Owner(slug)
		for _, fn := range fleet[1:] {
			if got := fn.router.Owner(slug); got != want {
				t.Fatalf("slug %s: %s says owner %s, %s says %s",
					slug, fleet[0].name, want, fn.name, got)
			}
		}
	}
}
