package views

import (
	"encoding/binary"
	"fmt"
)

// Marshal serializes the view tree rooted at id into a compact binary
// form suitable for sending over a real transport. Shared subviews are
// emitted once (the encoding is a DAG, mirroring the interner), in the
// node layout of MarshalInterner: the encoding is a small interner
// whose last node is the view.
func Marshal(in *Interner, id ID) []byte {
	order := make([]ID, 0, 16)
	index := make(map[ID]int)
	var walk func(ID)
	walk = func(v ID) {
		if _, ok := index[v]; ok {
			return
		}
		for _, ch := range in.node(v).from {
			if ch != NoView {
				walk(ch)
			}
		}
		index[v] = len(order)
		order = append(order, v)
	}
	walk(id)

	buf := make([]byte, 0, 8+8*len(order))
	buf = binary.AppendUvarint(buf, uint64(in.n))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, v := range order {
		buf = appendNode(buf, in.node(v), index)
	}
	return buf
}

// Unmarshal decodes a view produced by Marshal, interning it (and all
// its subviews) into in, and returns the root's ID. The receiving
// interner may differ from the sender's; IDs are remapped. The bytes
// are decoded and checked by UnmarshalInterner into a scratch
// interner, so in is touched only once the whole encoding has passed.
func Unmarshal(in *Interner, data []byte) (ID, error) {
	src, err := UnmarshalInterner(data)
	if err != nil {
		return NoView, err
	}
	if src.n != in.n {
		return NoView, fmt.Errorf("views: encoded for n=%d, interner has n=%d", src.n, in.n)
	}
	if src.Size() == 0 {
		return NoView, fmt.Errorf("views: empty encoding")
	}
	return NewImporter(in, src).Import(ID(src.Size() - 1)), nil
}
