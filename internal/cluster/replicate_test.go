package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
)

// TestReplicationByteIdenticalDigest is the acceptance check in
// miniature: a peer that fetched a snapshot over the wire must
// persist it under exactly the digest the owner advertises, and both
// must equal an independent cold build's digest.
func TestReplicationByteIdenticalDigest(t *testing.T) {
	fleet := startFleet(t, 2)
	req := service.Request{Formula: "E0", Mode: "omission", Limit: 455}
	key, _, err := fleet[0].eng.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	slug := key.Slug()

	owner := fleet[0].router.Owner(slug)
	var ownerNode, follower *fleetNode
	for _, fn := range fleet {
		if fn.name == owner {
			ownerNode = fn
		} else {
			follower = fn
		}
	}

	// Owner builds cold (its replicator sees itself as owner and
	// enumerates locally).
	if _, _, err := ownerNode.st.System(key); err != nil {
		t.Fatalf("owner build: %v", err)
	}
	ownerDigest, ok := ownerNode.st.DigestForSlug(slug)
	if !ok {
		t.Fatal("owner has no digest after build")
	}

	// Follower misses → replicator fetches from the owner.
	if _, _, err := follower.st.System(key); err != nil {
		t.Fatalf("follower build: %v", err)
	}
	followerDigest, ok := follower.st.DigestForSlug(slug)
	if !ok {
		t.Fatal("follower has no digest after replication")
	}
	if followerDigest != ownerDigest {
		t.Fatalf("replicated digest %s != owner digest %s", followerDigest, ownerDigest)
	}

	// Independent cold build in a third, clusterless store.
	coldStore, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coldStore.System(key); err != nil {
		t.Fatal(err)
	}
	coldDigest, ok := coldStore.DigestForSlug(slug)
	if !ok {
		t.Fatal("cold store has no digest")
	}
	if coldDigest != ownerDigest {
		t.Fatalf("cold build digest %s != replicated digest %s", coldDigest, ownerDigest)
	}
}

// corruptPeer serves a resolve body pointing at a digest whose
// snapshot bytes do not hash to it — a lying or bit-rotted peer.
func corruptPeer(t *testing.T, goodBlob []byte, digest string) *httptest.Server {
	t.Helper()
	bad := append([]byte(nil), goodBlob...)
	bad[len(bad)/2] ^= 0x40 // flip one bit mid-payload
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/resolve/{slug}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"slug":"` + r.PathValue("slug") + `","digest":"` + digest + `"}`)) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/snapshot/{digest}", func(w http.ResponseWriter, r *http.Request) {
		w.Write(bad) //nolint:errcheck
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestCorruptPeerQuarantined: bytes failing their content address are
// quarantined, the peer is suspended from routing, and the key is
// built locally — the follower's answers stay correct.
func TestCorruptPeerQuarantined(t *testing.T) {
	// Build a real snapshot to corrupt.
	seed, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	key := store.Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 3, Limit: 455}
	if _, _, err := seed.System(key); err != nil {
		t.Fatal(err)
	}
	digest, ok := seed.DigestForSlug(key.Slug())
	if !ok {
		t.Fatal("seed store has no digest")
	}
	blob, _, err := seed.SnapshotBytes(digest)
	if err != nil {
		t.Fatal(err)
	}

	evil := corruptPeer(t, blob, digest)

	// A one-node "fleet" of self plus the corrupt peer, rigged so the
	// peer owns everything it can.
	self := Node{Name: "self", URL: "http://unused"}
	peer := Node{Name: "evil", URL: evil.URL}
	ring, err := NewRing([]string{"self", "evil"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := NewMembership("self", []Node{self, peer}, time.Hour)
	st, err := store.Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplicator(self, ring, members, st)
	st.SetEnumerator(rep.Build)

	// Force the fetch path regardless of ring luck: call Build only if
	// the ring hands the key to the peer; otherwise fetch directly.
	sys, err := rep.fetch(peer, key.Slug())
	if err == nil || sys != nil {
		t.Fatal("corrupt snapshot must not decode into a system")
	}
	if members.Alive("evil") {
		t.Fatal("corrupt peer must be marked suspect")
	}
	if q := st.QuarantinedFiles(); len(q) == 0 {
		t.Fatal("corrupt bytes must land in quarantine")
	}

	// The store still answers: Build falls back to local enumeration
	// (the suspect peer is filtered out of the ring walk).
	sys2, err := rep.Build(key)
	if err != nil {
		t.Fatalf("local fallback: %v", err)
	}
	if sys2 == nil || sys2.NumRuns() == 0 {
		t.Fatal("fallback produced an empty system")
	}
}

// TestReplicatorOwnerMissFallsBackLocal: the owner not having built
// the key yet (404 on resolve) is not an error — the follower builds
// locally.
func TestReplicatorOwnerMissFallsBackLocal(t *testing.T) {
	fleet := startFleet(t, 2)
	req := service.Request{Formula: "E0", Mode: "omission", Limit: 477}
	key, _, err := fleet[0].eng.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	slug := key.Slug()
	owner := fleet[0].router.Owner(slug)
	var follower *fleetNode
	for _, fn := range fleet {
		if fn.name != owner {
			follower = fn
		}
	}
	// Nobody has built the key; the follower's miss resolves 404 at the
	// owner and enumerates locally.
	if _, _, err := follower.st.System(key); err != nil {
		t.Fatalf("owner-miss fallback: %v", err)
	}
	if _, ok := follower.st.DigestForSlug(slug); !ok {
		t.Fatal("follower did not persist its local build")
	}
}
