package nettransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// codecErr reports whether err is one of the codec's typed errors (or
// a clean EOF, legal between frames). Anything else leaking out of the
// decoder on hostile input is a bug.
func codecErr(err error) bool {
	return err == io.EOF ||
		errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrTruncatedFrame) ||
		errors.Is(err, ErrBadFrame)
}

// FuzzFrameCodec feeds arbitrary bytes to the frame decoder, as a
// hostile or corrupted peer would: every frame it accepts must survive
// an encode/decode round trip, and every rejection must carry one of
// the typed codec errors.
func FuzzFrameCodec(f *testing.F) {
	var seed bytes.Buffer
	writeRoundFrame(&seed, 1, nil)
	writeRoundFrame(&seed, 2, []byte{})
	writeRoundFrame(&seed, 3, []byte("hello"))
	f.Add(seed.Bytes())
	f.Add([]byte{1, flagPayload, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}) // overflowing varint
	f.Add([]byte{1, 0xff})                                                                    // unknown flag
	f.Add([]byte{1, flagPayload, 5, 1, 2})                                                    // truncated payload
	f.Add(append([]byte{1, flagPayload, 0xa0, 0x8d, 0x06}, make([]byte, 64)...))              // > maxFrame
	// New-mode corpus seeds: the frames a receiving- or general-omission
	// run ships are opaque payloads here, but their pattern keys are the
	// kind of structured bytes those runs put on the wire.
	var modeSeed bytes.Buffer
	writeRoundFrame(&modeSeed, 1, []byte(failures.Deaf(failures.ReceivingOmission, 3, 2, 1, 1).Key()))
	writeRoundFrame(&modeSeed, 2, []byte(failures.Deaf(failures.GeneralOmission, 3, 2, 2, 1).Key()))
	f.Add(modeSeed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			round, payload, err := readRoundFrame(r)
			if err != nil {
				if !codecErr(err) {
					t.Fatalf("untyped decode error: %v", err)
				}
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("decoded %d bytes past the frame limit", len(payload))
			}
			// Whatever decoded must round-trip through the encoder.
			var buf bytes.Buffer
			if err := writeRoundFrame(&buf, round, payload); err != nil {
				t.Fatal(err)
			}
			r2, again, err := readRoundFrame(&buf)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if r2 != round || (payload == nil) != (again == nil) || !bytes.Equal(payload, again) {
				t.Fatalf("round trip: %d %x -> %d %x", round, payload, r2, again)
			}
		}
	})
}

// FuzzRoundFrameCodec round-trips a frame built from its parts and
// checks that every strict prefix of its encoding is rejected with a
// typed error.
func FuzzRoundFrameCodec(f *testing.F) {
	f.Add(uint32(1), []byte("view"), false)
	f.Add(uint32(0), []byte(nil), true)
	f.Add(uint32(1<<31), bytes.Repeat([]byte{0xab}, 512), false)
	f.Add(uint32(2), []byte(failures.Deaf(failures.ReceivingOmission, 4, 3, 2, 1).Key()), false)
	f.Fuzz(func(t *testing.T, round uint32, payload []byte, null bool) {
		if null {
			payload = nil
		}
		var buf bytes.Buffer
		if err := writeRoundFrame(&buf, types.Round(round), payload); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()

		r, got, err := readRoundFrame(&buf)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if r != types.Round(round) {
			t.Fatalf("round %d -> %d", round, r)
		}
		if (payload == nil) != (got == nil) || !bytes.Equal(payload, got) {
			t.Fatalf("payload %x -> %x", payload, got)
		}

		// Every strict prefix is a truncated frame (or a clean EOF when
		// the prefix is empty) — never a panic or an untyped error.
		for cut := 0; cut < len(encoded); cut++ {
			_, _, err := readRoundFrame(bytes.NewReader(encoded[:cut]))
			if err == nil {
				t.Fatalf("prefix %d/%d decoded successfully", cut, len(encoded))
			}
			if !codecErr(err) {
				t.Fatalf("prefix %d/%d: untyped error %v", cut, len(encoded), err)
			}
		}
	})
}

// The maxFrame boundary is exact: a declared length of maxFrame is
// readable, maxFrame+1 is ErrFrameTooLarge before any payload read.
func TestFrameSizeBoundary(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRoundFrame(&buf, 2, make([]byte, maxFrame)); err != nil {
		t.Fatal(err)
	}
	_, payload, err := readRoundFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != maxFrame {
		t.Fatalf("len = %d", len(payload))
	}

	var big bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	big.Write(hdr[:binary.PutUvarint(hdr[:], 2)]) // round
	big.WriteByte(flagPayload)
	big.Write(hdr[:binary.PutUvarint(hdr[:], maxFrame+1)])
	if _, _, err := readRoundFrame(&big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}
