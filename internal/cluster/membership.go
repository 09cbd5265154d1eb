package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/service"
)

// Node is one fleet member: a stable name (the ring hashes names, so
// renaming a node moves its keys) and the base URL peers reach it at.
type Node struct {
	Name string
	URL  string
}

// ParseNode parses a "name=url" peer spec; a bare URL uses its
// host:port as the name.
func ParseNode(spec string) (Node, error) {
	name, rawurl, ok := strings.Cut(spec, "=")
	if !ok {
		rawurl, name = spec, ""
	}
	u, err := url.Parse(rawurl)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return Node{}, fmt.Errorf("cluster: bad peer %q (want [name=]http://host:port)", spec)
	}
	if name == "" {
		name = u.Host
	}
	return Node{Name: name, URL: strings.TrimRight(rawurl, "/")}, nil
}

// ParsePeers parses a comma-separated peer list.
func ParsePeers(list string) ([]Node, error) {
	var nodes []Node
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		n, err := ParseNode(spec)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return nodes, nil
}

// nodeState is one peer's liveness record.
type nodeState struct {
	alive  bool
	status string
	lastOK time.Time
}

// Membership tracks fleet liveness: a static node list (membership
// changes are a restart, not a protocol) with periodic /healthz
// probes deciding who is routable. Liveness is deliberately
// forgiving — any HTTP response means the process is up, even a 503
// "overloaded" (its admission control is the right place to push
// back, not our routing) — except an explicit "draining" status,
// which means the node is leaving and should stop receiving keys.
type Membership struct {
	self   string
	nodes  []Node
	byName map[string]Node

	client   *http.Client
	interval time.Duration

	mu    sync.RWMutex
	state map[string]*nodeState
}

// NewMembership builds a membership table for nodes, with self marked
// permanently alive (a node that can run this code is up). Probing
// starts when Start is called; until the first round every peer is
// presumed alive, so a booting fleet routes optimistically instead of
// collapsing onto the first node up.
func NewMembership(self string, nodes []Node, interval time.Duration) *Membership {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	m := &Membership{
		self:   self,
		nodes:  append([]Node(nil), nodes...),
		byName: make(map[string]Node, len(nodes)),
		client: &http.Client{
			Timeout:   3 * time.Second,
			Transport: service.SharedTransport(),
		},
		interval: interval,
		state:    make(map[string]*nodeState, len(nodes)),
	}
	for _, n := range m.nodes {
		m.byName[n.Name] = n
		m.state[n.Name] = &nodeState{alive: true, status: "unprobed"}
	}
	return m
}

// Lookup resolves a node name to its record.
func (m *Membership) Lookup(name string) (Node, bool) {
	n, ok := m.byName[name]
	return n, ok
}

// Alive reports whether name is routable. Self is always alive.
func (m *Membership) Alive(name string) bool {
	if name == m.self {
		return true
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.state[name]
	return ok && st.alive
}

// MarkDead records an observed failure (a forward that got no HTTP
// response) without waiting for the next probe round, so routing
// reacts at traffic speed and the probe loop rehabilitates later.
func (m *Membership) MarkDead(name string) {
	if name == m.self {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.state[name]; ok {
		st.alive = false
		st.status = "unreachable"
	}
}

// MemberStatus is one row of the membership snapshot.
type MemberStatus struct {
	Name   string    `json:"name"`
	URL    string    `json:"url"`
	Alive  bool      `json:"alive"`
	Status string    `json:"status"`
	Self   bool      `json:"self,omitempty"`
	LastOK time.Time `json:"last_ok,omitempty"`
}

// Snapshot returns the membership table sorted by name, for the
// /cluster/members endpoint and tests.
func (m *Membership) Snapshot() []MemberStatus {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]MemberStatus, 0, len(m.nodes))
	for _, n := range m.nodes {
		st := m.state[n.Name]
		out = append(out, MemberStatus{
			Name: n.Name, URL: n.URL,
			Alive:  st.alive,
			Status: st.status,
			Self:   n.Name == m.self,
			LastOK: st.lastOK,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProbeOnce probes every peer once. Exported so tests (and the first
// routing decision after boot, via Start) can force a synchronous
// round instead of sleeping through the interval.
func (m *Membership) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, n := range m.nodes {
		if n.Name == m.self {
			continue
		}
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			m.probe(ctx, n)
		}(n)
	}
	wg.Wait()
}

func (m *Membership) probe(ctx context.Context, n Node) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := m.client.Do(req)
	alive, status := false, "unreachable"
	if err == nil {
		var body struct {
			Status string `json:"status"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //nolint:errcheck // partial body decodes or fails below
		resp.Body.Close()
		json.Unmarshal(data, &body) //nolint:errcheck // empty status handled below
		status = body.Status
		if status == "" {
			status = "http " + resp.Status
		}
		// Any response is a live process; only an explicit drain takes
		// the node out of the ring.
		alive = status != "draining"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state[n.Name]
	st.alive = alive
	st.status = status
	if alive {
		st.lastOK = time.Now()
	}
}

// Start runs the probe loop until ctx is canceled, beginning with an
// immediate round so routing has real liveness before the first
// interval elapses.
func (m *Membership) Start(ctx context.Context) {
	m.ProbeOnce(ctx)
	go func() {
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				m.ProbeOnce(ctx)
			}
		}
	}()
}
