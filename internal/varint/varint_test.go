package varint

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fillRef is Fill as binary.Uvarint reads it, one varint at a time.
func fillRef(buf []byte, pos int, dst []uint64) (int, bool) {
	for i := range dst {
		v, k := binary.Uvarint(buf[pos:])
		if k <= 0 {
			return pos, false
		}
		dst[i] = v
		pos += k
	}
	return pos, true
}

// TestFillMatchesUvarint holds Fill to binary.Uvarint on varints of
// every length, packed so that each one ends at every offset of the
// 8-byte word the fast path reads, up to the buffer's last byte, and
// on truncated and overlong tails.
func TestFillMatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var buf []byte
		count := 1 + rng.Intn(20)
		for i := 0; i < count; i++ {
			start := len(buf)
			buf = binary.AppendUvarint(buf, rng.Uint64()>>uint(rng.Intn(64)))
			if last := len(buf) - 1; last-start < 9 && rng.Intn(8) == 0 {
				// A non-minimal encoding: the same value with a zero
				// group after its last byte.
				buf = append(buf[:last], buf[last]|0x80, 0)
			}
		}
		switch rng.Intn(4) {
		case 0:
			buf = buf[:rng.Intn(len(buf)+1)] // truncated
		case 1:
			buf = append(buf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01) // overlong
		}
		want := make([]uint64, count+1)
		wantPos, wantOK := fillRef(buf, 0, want)
		got := make([]uint64, count+1)
		gotPos, gotOK := Fill(buf, 0, got)
		if gotPos != wantPos || gotOK != wantOK {
			t.Fatalf("buf %x: Fill stopped at %d (ok %v), Uvarint at %d (ok %v)", buf, gotPos, gotOK, wantPos, wantOK)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("buf %x: varint %d is %d, want %d", buf, i, got[i], want[i])
			}
		}
		narrow := make([]int32, count+1)
		Fill(buf, 0, narrow)
		for i := range want {
			if narrow[i] != int32(want[i]) {
				t.Fatalf("buf %x: varint %d narrowed to %d, want %d", buf, i, narrow[i], int32(want[i]))
			}
		}
	}
}
