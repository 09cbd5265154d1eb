// Package cluster turns N ebad daemons into one logical query
// service: a consistent-hash ring routes each system key to an owning
// node, a membership table tracks which peers are alive, and a
// routing proxy forwards (or serves locally) with loop-guarded hop
// headers. There is no snapshot replication: routing sends every key
// to its owner, so a node misses only on keys it owns, and it builds
// those itself.
//
// The design goal is that every node runs the same binary with the
// same flags (plus its own -self): there is no coordinator, no
// consensus round, and no shared state beyond the static peer list.
// Consistent hashing makes routing agreement emerge from arithmetic —
// two nodes with the same peer list compute the same owner for every
// key — and liveness disagreements are safe because any node can
// serve any key (ownership is an optimization for cache locality, not
// a correctness requirement).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node point count on the ring. 128
// points per node keeps the expected imbalance for a 3-node fleet
// under a few percent while the ring stays small enough that a full
// rebuild is microseconds.
const DefaultVirtualNodes = 128

// ringPoint is one virtual node: a position on the 64-bit ring and
// the index of the node that owns it.
type ringPoint struct {
	pos  uint64
	node int
}

// Ring is a consistent-hash ring over node names. Immutable after
// construction and safe for concurrent use; liveness is layered on
// top at lookup time (Owner walks past nodes the caller reports
// dead), so probes never mutate the ring and every node's ring stays
// identical regardless of who it currently believes is up.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// hash64 maps a label to a ring position. SHA-256 (truncated) rather
// than a fast non-cryptographic hash: ring agreement across separately
// compiled processes is worth more than nanoseconds here, and the
// store already leans on SHA-256 for content addresses.
func hash64(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring with vnodes virtual nodes per node (0 means
// DefaultVirtualNodes). Node names must be unique; the ring is
// deterministic in the set of names — order of the slice does not
// matter, so peers configured in different orders still agree.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	r := &Ring{
		nodes:  sorted,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for ni, name := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				pos:  hash64(name + "#" + strconv.Itoa(v)),
				node: ni,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Colliding positions tie-break on node index so the ring is
		// still a pure function of the node set.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the ring's node names in their canonical (sorted)
// order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key: the first virtual node at or
// after the key's ring position.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.search(key)].node]
}

// OwnerAlive returns the owner for key among nodes that alive reports
// up, walking the ring past dead owners. Minimal movement: keys owned
// by live nodes keep their owner; keys owned by a dead node land on
// the next live successor, and return home when the owner recovers.
// When every node is reported dead it falls back to the unfiltered
// owner (the caller is about to serve locally anyway).
func (r *Ring) OwnerAlive(key string, alive func(string) bool) string {
	start := r.search(key)
	seen := make(map[int]bool, len(r.nodes))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if alive(r.nodes[p.node]) {
			return r.nodes[p.node]
		}
		if len(seen) == len(r.nodes) {
			break
		}
	}
	return r.nodes[r.points[start].node]
}

// search returns the index of the first point at or after key's
// position (wrapping).
func (r *Ring) search(key string) int {
	pos := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return i
}
