package nettransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/eventual-agreement/eba/internal/types"
)

// maxFrame bounds a frame payload (1 MiB — far beyond any view).
const maxFrame = 1 << 20

// Typed codec errors. Callers can distinguish a frame that violates
// the protocol (oversized, malformed) from a connection that died
// mid-frame (truncated): the former poisons the stream, the latter is
// the normal signature of a torn TCP connection and degrades to an
// omission in the resilient engine.
var (
	// ErrFrameTooLarge reports a frame whose declared payload length
	// exceeds maxFrame. The stream is unusable after this error: the
	// oversized payload is never read.
	ErrFrameTooLarge = errors.New("nettransport: frame exceeds size limit")
	// ErrTruncatedFrame reports a connection that died mid-frame: the
	// header promised more bytes than the stream delivered.
	ErrTruncatedFrame = errors.New("nettransport: truncated frame")
	// ErrBadFrame reports a malformed header (unknown flag byte or an
	// overlong/invalid length varint).
	ErrBadFrame = errors.New("nettransport: malformed frame")
)

// Frame flag bytes: a null frame is the round clock with nothing to
// say; a payload frame carries a length-prefixed message.
const (
	flagNull    = 0
	flagPayload = 1
)

// writeRoundFrame emits [round uvarint][flag][len uvarint][payload]:
// a frame tagged with its round so receivers can discard duplicates
// and stale deliveries and realign after a reconnect. A nil payload
// encodes the null frame, which ends at the flag byte (a zero-length
// payload and a null frame are distinguished by the flag).
func writeRoundFrame(w io.Writer, r types.Round, payload []byte) error {
	var hdr [2*binary.MaxVarintLen64 + 1]byte
	k := binary.PutUvarint(hdr[:], uint64(r))
	if payload == nil {
		hdr[k] = flagNull
		_, err := w.Write(hdr[: k+1 : k+1])
		return err
	}
	hdr[k] = flagPayload
	k += 1 + binary.PutUvarint(hdr[k+1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:k:k]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readRoundFrame reads one round-tagged frame. A nil payload with a
// nil error is a null frame. A clean close between frames surfaces as
// io.EOF; a close mid-frame as ErrTruncatedFrame.
func readRoundFrame(r io.Reader) (types.Round, []byte, error) {
	br := byteReader{r}
	rnd, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean close between frames
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, truncated(err)
		}
		return 0, nil, fmt.Errorf("%w: bad round varint (%v)", ErrBadFrame, err)
	}
	if rnd > 1<<32 {
		return 0, nil, fmt.Errorf("%w: round %d out of range", ErrBadFrame, rnd)
	}
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return 0, nil, truncated(err)
	}
	switch flag[0] {
	case flagNull:
		return types.Round(rnd), nil, nil
	case flagPayload:
	default:
		return 0, nil, fmt.Errorf("%w: flag byte %#x", ErrBadFrame, flag[0])
	}
	size, err := readSize(r)
	if err != nil {
		return 0, nil, err
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, truncated(err)
	}
	return types.Round(rnd), buf, nil
}

// readSize reads and bounds a payload length varint.
func readSize(r io.Reader) (uint64, error) {
	size, err := binary.ReadUvarint(byteReader{r})
	if err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, truncated(err)
		}
		// ReadUvarint's only non-I/O failure is an overflowing varint.
		return 0, fmt.Errorf("%w: bad length varint (%v)", ErrBadFrame, err)
	}
	if size > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, size, maxFrame)
	}
	return size, nil
}

// truncated maps a short-read error to ErrTruncatedFrame, preserving
// the cause; other I/O errors pass through unchanged.
func truncated(err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	return err
}

// byteReader adapts an io.Reader to io.ByteReader for ReadUvarint.
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}
