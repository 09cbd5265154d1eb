package views

import (
	"encoding/binary"
	"fmt"

	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/varint"
)

// MarshalInterner serializes every view of the interner, in ID order,
// into a deterministic binary form. Children always precede parents
// (Extend requires its children to exist), so the node list is already
// topologically sorted and IDs survive a round-trip unchanged:
// UnmarshalInterner assigns the same ID to the same view. This is the
// bulk payload of the snapshot store — a persisted system carries its
// interner, and the runs' view tables reference these IDs directly.
func MarshalInterner(in *Interner) []byte {
	buf := make([]byte, 0, 16+8*len(in.nodes))
	buf = binary.AppendUvarint(buf, uint64(in.n))
	buf = binary.AppendUvarint(buf, uint64(len(in.nodes)))
	for i := range in.nodes {
		buf = appendNode(buf, &in.nodes[i], nil)
	}
	return buf
}

// appendNode writes one node of the encoding that MarshalInterner and
// Marshal share: processor and time, then a leaf's initial value or,
// for an interior node, one reference per sender: 0 for an omitted
// message, else the child's position in the encoding plus one. The
// position is index[child], or the child's ID when index is nil.
func appendNode(buf []byte, nd *node, index map[ID]int) []byte {
	buf = binary.AppendUvarint(buf, uint64(nd.proc))
	buf = binary.AppendUvarint(buf, uint64(nd.time))
	if nd.from == nil {
		return append(buf, byte(nd.initial))
	}
	for _, ch := range nd.from {
		switch {
		case ch == NoView:
			buf = append(buf, 0)
		case index == nil:
			buf = binary.AppendUvarint(buf, uint64(ch)+1)
		default:
			buf = binary.AppendUvarint(buf, uint64(index[ch])+1)
		}
	}
	return buf
}

// UnmarshalInterner reconstructs an interner serialized by
// MarshalInterner. The node table is rebuilt with every structural
// invariant checked (child ownership, times, own-previous-view), and
// each node's known-value sets are ORed from its children's as it is
// read, but the hash-cons table is NOT rebuilt here: restored
// interners are queried far more often than extended, so the table is
// reconstructed lazily by the first Leaf/Extend call (see
// Interner.ensureIndex), and the syntactic-analysis memo tables are
// sized by the first analysis that needs them (see Interner.growMemo).
// View IDs are identical to the original's, and further interning
// still dedups against the restored views. Child arrays are carved
// from one arena block sized up front, so a restore costs O(1)
// allocations for the node storage instead of one per interior node.
//
// Every allocation is bounded by len(data), so a blob that lies about
// its node count fails before it costs more than a few times its own
// size: the snapshot store decodes the interner before the snapshot's
// checksum has verified, a peer's snapshot is checksum-valid whatever
// it holds, and Unmarshal decodes every wire view from a peer here.
func UnmarshalInterner(data []byte) (*Interner, error) {
	var hdr [2]uint64 // n, node count
	pos, ok := varint.Fill(data, 0, hdr[:])
	if !ok {
		return nil, truncated(pos)
	}
	if hdr[0] < 2 || hdr[0] > types.MaxProcs {
		return nil, fmt.Errorf("views: interner n=%d out of range", hdr[0])
	}
	n, count := int(hdr[0]), hdr[1]
	// A leaf takes at least three bytes (processor, time, initial
	// value) and an interior node 2+n, so the blob holds at most
	// len/3 nodes; IDs are int32.
	const maxNodes = 1<<31 - 1
	if count > uint64(len(data)/3) || count > maxNodes {
		return nil, fmt.Errorf("views: interner claims %d nodes in %d bytes", count, len(data))
	}
	// No hash-cons table: built on first intern. An interior node's n
	// child references take at least n bytes, so len(data) IDs hold
	// every child array a valid blob can carry.
	in := &Interner{n: n, nodes: make([]node, 0, count), known: make([][2]types.ProcSet, 0, count)}
	if count > 0 {
		in.fromArena = make([]ID, 0, min(int(count)*n, len(data)))
	}
	var head [2]uint64 // processor, time
	refs := make([]uint64, n)
	for k := uint64(0); k < count; k++ {
		if pos, ok = varint.Fill(data, pos, head[:]); !ok {
			return nil, truncated(pos)
		}
		procU, timeU := head[0], head[1]
		if procU >= uint64(n) {
			return nil, fmt.Errorf("views: node %d: processor %d out of range", k, procU)
		}
		nd := node{proc: types.ProcID(procU), time: types.Round(timeU)}
		if timeU == 0 {
			if pos >= len(data) {
				return nil, truncated(pos)
			}
			b := data[pos]
			pos++
			nd.initial = types.Value(int8(b))
			if !nd.initial.Valid() {
				return nil, fmt.Errorf("views: node %d: invalid initial value %d", k, b)
			}
		} else {
			if pos, ok = varint.Fill(data, pos, refs); !ok {
				return nil, truncated(pos)
			}
			nd.from = in.allocFrom(n)
			for j, ref := range refs {
				if ref == 0 {
					nd.from[j] = NoView
					continue
				}
				if ref > k {
					return nil, fmt.Errorf("views: node %d: forward reference %d", k, ref-1)
				}
				ch := &in.nodes[ref-1]
				if ch.proc != types.ProcID(j) && mutant != "childowner" {
					return nil, fmt.Errorf("views: node %d: child %d owned by %d, want %d", k, ref-1, ch.proc, j)
				}
				if ch.time != nd.time-1 && mutant != "childtime" {
					return nil, fmt.Errorf("views: node %d: child at time %d under node at time %d", k, ch.time, nd.time)
				}
				nd.from[j] = ID(ref - 1)
			}
			own := nd.from[nd.proc]
			if own == NoView {
				return nil, fmt.Errorf("views: node %d: lacks own previous view", k)
			}
			nd.initial = in.nodes[own].initial
		}
		in.nodes = append(in.nodes, nd)
		in.known = append(in.known, in.knownOf(&nd))
	}
	return in, nil
}

func truncated(pos int) error { return fmt.Errorf("views: truncated encoding at byte %d", pos) }
