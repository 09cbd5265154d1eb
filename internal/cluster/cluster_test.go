package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
)

// swapHandler lets an httptest server exist (and have a URL) before
// the cluster that handles its traffic is built.
type swapHandler struct {
	inner atomic.Value // http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, _ := s.inner.Load().(http.Handler)
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// fleetNode is one member of a test fleet.
type fleetNode struct {
	name    string
	url     string
	ts      *httptest.Server
	st      *store.Store
	eng     *service.Engine
	srv     *service.Server
	cluster *Cluster
	router  *Router
}

// startFleet boots n full cluster nodes (real stores, engines,
// servers, routers) over httptest listeners and returns them wired to
// each other. Stores persist to per-node temp dirs, so a test can see
// which node's disk holds a key's snapshot.
func startFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	peers := make([]Node, n)
	for i := range nodes {
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		name := "n" + string(rune('1'+i))
		nodes[i] = &fleetNode{name: name, url: ts.URL, ts: ts}
		peers[i] = Node{Name: name, URL: ts.URL}
	}
	for i, fn := range nodes {
		st, err := store.Open(t.TempDir(), 16)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		eng := service.NewEngine(st, time.Minute)
		srv := service.NewServer(eng)
		cl, err := New(Config{Self: fn.name, Peers: peers, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		router := cl.Attach(eng, srv, cl.Owner)
		fn.st, fn.eng, fn.srv, fn.cluster, fn.router = st, eng, srv, cl, router
		nodes[i].ts.Config.Handler.(*swapHandler).inner.Store(srv.Handler())
	}
	return nodes
}

func TestClusterNewValidates(t *testing.T) {
	peers := []Node{{Name: "a", URL: "http://x"}, {Name: "b", URL: "http://y"}}
	if _, err := New(Config{Self: "c", Peers: peers}); err == nil {
		t.Fatal("want error for self not in peers")
	}
	if _, err := New(Config{Self: "a", Peers: nil}); err == nil {
		t.Fatal("want error for empty peers")
	}
	if _, err := New(Config{Self: "a", Peers: peers}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("n1=http://127.0.0.1:8081, n2=http://127.0.0.1:8082")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "n1" || nodes[1].URL != "http://127.0.0.1:8082" {
		t.Fatalf("bad parse: %+v", nodes)
	}
	bare, err := ParsePeers("http://127.0.0.1:9001/")
	if err != nil {
		t.Fatal(err)
	}
	if bare[0].Name != "127.0.0.1:9001" || bare[0].URL != "http://127.0.0.1:9001" {
		t.Fatalf("bare spec: %+v", bare[0])
	}
	if _, err := ParsePeers("not a url"); err == nil {
		t.Fatal("want error for junk spec")
	}
	if _, err := ParsePeers(" , "); err == nil {
		t.Fatal("want error for empty list")
	}
}

func TestMembershipProbeAndDrain(t *testing.T) {
	// A draining peer answers /healthz with 503 "draining" and must be
	// routed around; a 503 "overloaded" peer stays in the ring.
	status := atomic.Value{}
	status.Store("ok")
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := status.Load().(string)
		code := http.StatusOK
		if s != "ok" && s != "degraded" {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write([]byte(`{"status":"` + s + `"}`)) //nolint:errcheck
	}))
	defer peer.Close()

	m := NewMembership("self", []Node{
		{Name: "self", URL: "http://unused"},
		{Name: "peer", URL: peer.URL},
	}, time.Hour)

	m.ProbeOnce(context.Background())
	if !m.Alive("peer") {
		t.Fatal("healthy peer marked dead")
	}
	status.Store("overloaded")
	m.ProbeOnce(context.Background())
	if !m.Alive("peer") {
		t.Fatal("overloaded peer must stay routable (its admission sheds)")
	}
	status.Store("draining")
	m.ProbeOnce(context.Background())
	if m.Alive("peer") {
		t.Fatal("draining peer must leave the ring")
	}
	status.Store("ok")
	m.ProbeOnce(context.Background())
	if !m.Alive("peer") {
		t.Fatal("recovered peer must rejoin")
	}

	// A dead transport marks the peer dead.
	peer.Close()
	m.ProbeOnce(context.Background())
	if m.Alive("peer") {
		t.Fatal("unreachable peer marked alive")
	}
	if m.Alive("self") != true {
		t.Fatal("self is always alive")
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Name != "peer" || snap[1].Name != "self" {
		t.Fatalf("snapshot: %+v", snap)
	}
}
