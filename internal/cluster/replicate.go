package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// Replicator fills store misses from peers before computing: when
// this node needs a system it does not hold, it asks the ring owner
// for the snapshot's content address (GET /v1/resolve/{slug}), fetches
// the bytes (GET /v1/snapshot/{digest}), and verifies the SHA-256
// trailer against the address before decoding. Because EncodeSystem
// is deterministic, a fetched system re-persisted locally gets the
// same digest the owner advertised — replication cannot drift the
// content address — and because the address is verified end to end, a
// corrupt or lying peer yields a quarantined blob and a local build,
// never a poisoned cache.
//
// Plug it into the store with store.SetEnumerator(rep.Build): the
// store's own singleflight then dedups concurrent fetches per key,
// exactly as it dedups local enumerations.
type Replicator struct {
	self    Node
	ring    *Ring
	members *Membership
	st      *store.Store
	client  *http.Client
}

// NewReplicator builds the replication layer for self's store.
func NewReplicator(self Node, ring *Ring, members *Membership, st *store.Store) *Replicator {
	return &Replicator{
		self:    self,
		ring:    ring,
		members: members,
		st:      st,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: service.SharedTransport(),
		},
	}
}

// Build is the store's enumerator hook: fetch from the owner when a
// live peer owns the key, enumerate locally otherwise (we own it, the
// owner is down, the owner never built it, or the bytes fail
// verification). Every fallback path ends in EnumerateLocal, so
// replication can only ever make a miss cheaper, never fail it.
func (rp *Replicator) Build(key store.Key) (*system.System, error) {
	slug := key.Slug()
	owner := rp.ring.OwnerAlive(slug, rp.members.Alive)
	if owner == rp.self.Name {
		return rp.st.EnumerateLocal(key)
	}
	node, ok := rp.members.Lookup(owner)
	if !ok {
		return rp.st.EnumerateLocal(key)
	}
	sys, err := rp.fetch(node, slug)
	if err != nil {
		return rp.st.EnumerateLocal(key)
	}
	return sys, nil
}

// fetch resolves slug to a digest on node and pulls the snapshot.
func (rp *Replicator) fetch(node Node, slug string) (*system.System, error) {
	_, sp := telemetry.StartSpan(context.Background(), "cluster.replicate", telemetry.L("slug", slug), telemetry.L("from", node.Name))
	defer sp.End()

	resp, err := rp.client.Get(node.URL + "/v1/resolve/" + slug)
	if err != nil {
		rp.members.MarkDead(node.Name)
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		// Usually a plain 404: the owner has not built this key either.
		// Not an offense — build locally (the owner will replicate from
		// us later if routing flips).
		return nil, fmt.Errorf("resolve %s on %s: status %d", slug, node.Name, resp.StatusCode)
	}
	var rb struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &rb); err != nil || len(rb.Digest) != 64 {
		return nil, fmt.Errorf("resolve %s on %s: bad body", slug, node.Name)
	}

	blob, err := rp.fetchSnapshot(node, rb.Digest)
	if err != nil {
		return nil, err
	}
	key, sys, err := store.DecodeSystem(blob)
	if err != nil {
		// Verified bytes that fail decode mean a codec-version skew, not
		// corruption; local build handles it.
		return nil, fmt.Errorf("decode %s from %s: %w", slug, node.Name, err)
	}
	if key.Slug() != slug {
		rp.quarantine(node, rb.Digest, blob, "key mismatch: advertised "+slug+", decoded "+key.Slug())
		return nil, fmt.Errorf("snapshot %s from %s decodes to %s", slug, node.Name, key.Slug())
	}
	return sys, nil
}

// fetchSnapshot pulls and verifies one content-addressed blob: the
// SHA-256 of the received bytes' payload must equal the requested
// address, and the envelope must pass the store's structural check.
func (rp *Replicator) fetchSnapshot(node Node, digest string) ([]byte, error) {
	resp, err := rp.client.Get(node.URL + "/v1/snapshot/" + digest)
	if err != nil {
		rp.members.MarkDead(node.Name)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s on %s: status %d", digest, node.Name, resp.StatusCode)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, err
	}
	if got := store.Digest(blob); got != digest {
		rp.quarantine(node, digest, blob, "digest mismatch: got "+got)
		return nil, fmt.Errorf("snapshot from %s fails content address: want %s, got %s", node.Name, digest, got)
	}
	if err := store.VerifySnapshot(blob); err != nil {
		rp.quarantine(node, digest, blob, err.Error())
		return nil, fmt.Errorf("snapshot from %s: %w", node.Name, err)
	}
	return blob, nil
}

// quarantine records a peer's bad bytes on disk (for the operator's
// autopsy) and suspends routing to it until a probe clears it.
func (rp *Replicator) quarantine(node Node, digest string, blob []byte, reason string) {
	telemetry.Emit("cluster.replication_mismatch",
		telemetry.L("from", node.Name), telemetry.L("digest", digest), telemetry.L("reason", reason))
	name := "peer-" + node.Name + "-" + digest[:16] + ".eba"
	rp.st.QuarantineBlob(name, blob) //nolint:errcheck // best-effort forensics; the fetch already failed
	rp.members.MarkSuspect(node.Name)
}
