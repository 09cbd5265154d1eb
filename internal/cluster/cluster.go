package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/eventual-agreement/eba/internal/service"
)

// Config assembles one node's view of the fleet.
type Config struct {
	// Self names this node; it must appear in Peers.
	Self string
	// Peers is the full static fleet, this node included.
	Peers []Node
	// ProbeInterval is the /healthz probe cadence (0 = 2s).
	ProbeInterval time.Duration
}

// Cluster is one node's assembled distribution layer: the shared ring,
// this node's membership view, and its identity.
type Cluster struct {
	Self    Node
	Ring    *Ring
	Members *Membership
}

// New validates cfg and builds the ring and membership table. No I/O
// happens until Start.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	names := make([]string, 0, len(cfg.Peers))
	var self Node
	found := false
	for _, n := range cfg.Peers {
		names = append(names, n.Name)
		if n.Name == cfg.Self {
			self, found = n, true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", cfg.Self, names)
	}
	ring, err := NewRing(names, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		Self:    self,
		Ring:    ring,
		Members: NewMembership(self.Name, cfg.Peers, cfg.ProbeInterval),
	}, nil
}

// Owner returns the live ring owner for a key slug: the owner a
// production router is attached with.
func (c *Cluster) Owner(slug string) string { return c.Ring.OwnerAlive(slug, c.Members.Alive) }

// Attach wires the cluster into a node's local stack: the server
// learns its node name, and its handler gets wrapped by a router
// sending each key to owner(slug) (normally c.Owner). Call before
// serving.
func (c *Cluster) Attach(eng *service.Engine, srv *service.Server, owner func(slug string) string) *Router {
	srv.SetNode(c.Self.Name)
	resolve := func(req service.Request) (string, error) {
		key, _, err := eng.Resolve(req)
		if err != nil {
			return "", err
		}
		return key.Slug(), nil
	}
	router := NewRouter(c.Self, owner, c.Members, srv, resolve)
	srv.SetWrapper(router.Wrap)
	return router
}

// Start begins background probing until ctx is canceled.
func (c *Cluster) Start(ctx context.Context) { c.Members.Start(ctx) }
