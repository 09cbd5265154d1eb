package views

import "fmt"

// Importer re-interns views from a source interner into a destination
// interner. Unmarshal uses it to move a decoded wire view into the
// receiver's interner. It is also the merge primitive of the parallel
// system builder: each enumeration worker interns its shard's views
// into a private Interner, and the single-threaded merge walks the
// shards in canonical order importing every view into the shared DAG.
// Because Leaf/Extend keys are built from destination IDs, importing
// views in the same first-encounter order as a sequential enumeration
// assigns the same IDs — which is what keeps a parallel build
// byte-identical to the sequential one.
//
// An Importer memoizes source→destination translation, so repeated
// imports of shared subtrees cost one slice lookup. It interns into
// dst and is therefore not safe for concurrent use, same as interning
// itself.
type Importer struct {
	dst, src *Interner
	// memo[srcID] = dstID+1; 0 marks an untranslated view.
	memo []ID
}

// NewImporter creates an importer from src into dst. Both interners
// must be sized for the same n.
func NewImporter(dst, src *Interner) *Importer {
	if dst.n != src.n {
		panic(fmt.Sprintf("views: NewImporter n mismatch: dst %d, src %d", dst.n, src.n))
	}
	return &Importer{dst: dst, src: src, memo: make([]ID, len(src.nodes))}
}

// Import returns the destination ID denoting the same view as the
// source ID, interning the view (and, recursively, its subviews) into
// the destination on first use. NoView maps to NoView.
func (im *Importer) Import(id ID) ID {
	if id == NoView {
		return NoView
	}
	if m := im.memo[id]; m != 0 {
		return m - 1
	}
	nd := im.src.node(id)
	var out ID
	if nd.from == nil {
		out = im.dst.Leaf(nd.proc, nd.initial)
	} else {
		received := make([]ID, im.src.n)
		for j := range received {
			received[j] = im.Import(nd.from[j])
		}
		out = im.dst.Extend(nd.proc, received[nd.proc], received)
	}
	im.memo[id] = out + 1
	return out
}
