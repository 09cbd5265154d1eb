// Package varint decodes runs of unsigned varints (the encoding/binary
// form) with the short ones inline. The snapshot codec and the
// interner codec read nearly every byte they decode through it.
package varint

import "encoding/binary"

// Fill decodes the next len(dst) varints of buf, starting at pos, into
// dst, each narrowed to dst's element type as a conversion would. It
// returns the position after the last one. If a varint is truncated or
// overlong, Fill stops there and returns that varint's position and
// false; the elements of dst before it are filled.
func Fill[T ~int32 | ~uint64](buf []byte, pos int, dst []T) (int, bool) {
	for i := range dst {
		// One to three bytes inline (values below 2^21), the rest, and
		// the last bytes of the buffer, through binary.Uvarint. The
		// branches follow the common lengths well enough that the next
		// varint's load need not wait for this one's length.
		if len(buf)-pos >= 3 {
			b0, b1, b2 := buf[pos], buf[pos+1], buf[pos+2]
			if b0 < 0x80 {
				dst[i] = T(b0)
				pos++
				continue
			}
			if b1 < 0x80 {
				dst[i] = T(b0&0x7f) | T(b1)<<7
				pos += 2
				continue
			}
			if b2 < 0x80 {
				dst[i] = T(b0&0x7f) | T(b1&0x7f)<<7 | T(b2)<<14
				pos += 3
				continue
			}
		}
		v, k := binary.Uvarint(buf[pos:])
		if k <= 0 {
			return pos, false
		}
		dst[i] = T(v)
		pos += k
	}
	return pos, true
}
