package nettransport

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// A chaos-free TCP run of the wire-format full-information protocol
// reproduces the deterministic engine's decisions for the interned
// one, in crash and omission mode. Nothing is lost, so no receiver
// waits out a deadline and the default one costs no time. Faulty runs
// are pinned to sim.Run by TestChaosCrossEngineEquivalence.
func TestTCPMatchesSim(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	const h = 3
	pair := protocols.P0OptPair()
	scenarios := []struct {
		mode failures.Mode
		cfg  types.Config
	}{
		{failures.Crash, types.ConfigFromBits(4, 0b1110)},
		{failures.Crash, types.ConfigFromBits(4, 0b1111)},
		{failures.Omission, types.ConfigFromBits(4, 0b0000)},
	}
	for _, sc := range scenarios {
		in := views.NewInterner(4)
		want, err := sim.Run(fip.Protocol(in, pair), params, sc.cfg, failures.FailureFree(sc.mode, 4, h))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunResilient(fip.WireProtocol(pair), params, sc.cfg, Options{Mode: sc.mode, Horizon: h})
		if err != nil {
			t.Fatal(err)
		}
		if d := sim.DiffTraces(got, want); d != "" {
			t.Fatalf("%s cfg %s: tcp vs sim: %s", sc.mode, sc.cfg, d)
		}
		if !got.Pattern.Faulty().Empty() {
			t.Fatalf("%s cfg %s: spurious faults reconstructed: %s", sc.mode, sc.cfg, got.Pattern)
		}
	}
}

// bytesProto is a trivial []byte protocol used for error-path and
// counter tests: every processor broadcasts its ID byte each round
// and decides its initial value at time 1.
type bytesProto struct{}

func (bytesProto) Name() string { return "bytes-test" }

func (bytesProto) New(env sim.Env) sim.Process { return &bytesProc{env: env} }

type bytesProc struct {
	env     sim.Env
	seen    int
	decided bool
}

func (p *bytesProc) Send(types.Round) []sim.Message {
	out := make([]sim.Message, p.env.Params.N)
	for i := range out {
		out[i] = []byte{byte(p.env.ID)}
	}
	return out
}

func (p *bytesProc) Receive(r types.Round, msgs []sim.Message) {
	for j, m := range msgs {
		if m == nil {
			continue
		}
		b := m.([]byte)
		if len(b) != 1 || int(b[0]) != j {
			panic("corrupted frame")
		}
		p.seen++
	}
	p.decided = true
}

func (p *bytesProc) Decided() (types.Value, bool) {
	if !p.decided {
		return types.Unset, false
	}
	return p.env.Initial, true
}

func TestTCPMessageCounters(t *testing.T) {
	const n, h = 3, 2
	params := types.Params{N: n, T: 1}
	tr, err := RunResilient(bytesProto{}, params, types.ConfigFromBits(n, 0), Options{Mode: failures.Omission, Horizon: h})
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) * h; tr.Sent != want || tr.Delivered != want {
		t.Fatalf("sent %d, delivered %d, want %d each", tr.Sent, tr.Delivered, want)
	}
}

// nonBytesProto produces a non-[]byte message; the engine must report
// it as an error rather than panic.
type nonBytesProto struct{}

func (nonBytesProto) Name() string { return "bad" }

func (nonBytesProto) New(env sim.Env) sim.Process { return nonBytesProc{n: env.Params.N} }

type nonBytesProc struct{ n int }

func (p nonBytesProc) Send(types.Round) []sim.Message {
	out := make([]sim.Message, p.n)
	for i := range out {
		out[i] = 42
	}
	return out
}

func (nonBytesProc) Receive(types.Round, []sim.Message) {}
func (nonBytesProc) Decided() (types.Value, bool)       { return types.Unset, false }

func TestTCPRejectsNonBytes(t *testing.T) {
	params := types.Params{N: 3, T: 0}
	_, err := RunResilient(nonBytesProto{}, params, types.ConfigFromBits(3, 0), Options{Mode: failures.Crash, Horizon: 1})
	if err == nil || !strings.Contains(err.Error(), "non-[]byte") {
		t.Fatalf("non-[]byte message: err = %v, want the named rejection", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{7}, 1000)}
	for i, p := range payloads {
		if err := writeRoundFrame(&buf, types.Round(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		r, got, err := readRoundFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if r != types.Round(i+1) || (want == nil) != (got == nil) || !bytes.Equal(want, got) {
			t.Fatalf("frame round trip: round %d %v -> round %d %v", i+1, want, r, got)
		}
	}
	// A stream that dies mid-frame is a truncation, not a protocol
	// violation.
	if _, _, err := readRoundFrame(bytes.NewReader([]byte{1, flagPayload, 5, 1, 2})); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("torn frame: err = %v, want ErrTruncatedFrame", err)
	}
	// An unknown flag byte poisons the stream.
	if _, _, err := readRoundFrame(bytes.NewReader([]byte{1, 0x7f})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad flag: err = %v, want ErrBadFrame", err)
	}
	// A clean close between frames is a plain EOF, never a typed
	// failure.
	if _, _, err := readRoundFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean close: err = %v, want io.EOF", err)
	}
}
