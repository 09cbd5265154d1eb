package views

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// buildTestInterner fills an interner with the views of a few runs,
// including omissions, so the codec sees leaves, absent messages, and
// shared subviews.
func buildTestInterner(t *testing.T) *Interner {
	t.Helper()
	in := NewInterner(3)
	pats := []*failures.Pattern{
		failures.FailureFree(failures.Crash, 3, 2),
		failures.Silent(failures.Crash, 3, 2, 1, 1),
		failures.Silent(failures.Crash, 3, 2, 2, 2),
	}
	for _, pat := range pats {
		for mask := uint64(0); mask < 8; mask++ {
			BuildRun(in, types.ConfigFromBits(3, mask), pat)
		}
	}
	return in
}

func TestInternerCodecRoundTrip(t *testing.T) {
	in := buildTestInterner(t)
	blob := MarshalInterner(in)
	out, err := UnmarshalInterner(blob)
	if err != nil {
		t.Fatalf("UnmarshalInterner: %v", err)
	}
	if out.Size() != in.Size() {
		t.Fatalf("size %d after round trip, want %d", out.Size(), in.Size())
	}
	for id := ID(0); int(id) < in.Size(); id++ {
		if out.Proc(id) != in.Proc(id) || out.Time(id) != in.Time(id) || out.Initial(id) != in.Initial(id) {
			t.Fatalf("node %d differs: (%d,%d,%v) vs (%d,%d,%v)", id,
				out.Proc(id), out.Time(id), out.Initial(id), in.Proc(id), in.Time(id), in.Initial(id))
		}
		for j := 0; j < 3; j++ {
			if out.From(id, types.ProcID(j)) != in.From(id, types.ProcID(j)) {
				t.Fatalf("node %d from[%d] differs", id, j)
			}
		}
		if in.String(id) != out.String(id) {
			t.Fatalf("node %d renders differently", id)
		}
	}
	stamps := out.Stamps()
	if len(stamps) != in.Size() {
		t.Fatalf("%d stamps for %d views", len(stamps), in.Size())
	}
	for id := ID(0); int(id) < in.Size(); id++ {
		want := StampOf(in.Proc(id), in.Time(id), in.Initial(id))
		if stamps[id] != want || want.WithInitial(in.Initial(id).Opposite()) == want ||
			want.WithInitial(in.Initial(id).Opposite()).WithInitial(in.Initial(id)) != want {
			t.Fatalf("node %d has stamp %#x, want %#x", id, stamps[id], want)
		}
	}
	// The analyses agree (the restored interner sizes its memo tables
	// on the first call).
	for id := ID(0); int(id) < in.Size(); id++ {
		if in.Knows(id, types.Zero) != out.Knows(id, types.Zero) ||
			in.FaultEvidence(id) != out.FaultEvidence(id) ||
			in.BelievesExistsZeroStar(id) != out.BelievesExistsZeroStar(id) {
			t.Fatalf("analyses differ at node %d", id)
		}
	}
	// The restored index dedups future interning: re-interning an
	// existing leaf must return its old ID, and the encoding is stable.
	if got := out.Leaf(0, types.Zero); got != in.Leaf(0, types.Zero) {
		t.Fatalf("restored interner minted a fresh ID for an existing leaf")
	}
	if !bytes.Equal(MarshalInterner(out), blob) {
		t.Fatalf("re-encoding differs from original encoding")
	}
	// The memo tables, sized for the restored views, follow interning:
	// a view minted after the analyses ran is analysed like any other.
	received := []ID{out.Leaf(0, types.Zero), NoView, NoView}
	next := out.Extend(0, received[0], received)
	if int(next) != in.Size() {
		t.Fatalf("fresh view got ID %d, want %d", next, in.Size())
	}
	if !out.Knows(next, types.Zero) || out.FaultEvidence(next) != types.SetOf(1, 2) || !out.BelievesExistsZeroStar(next) {
		t.Fatalf("analyses of a view interned after the restore: knows0=%v evidence=%v believes=%v",
			out.Knows(next, types.Zero), out.FaultEvidence(next), out.BelievesExistsZeroStar(next))
	}
}

func TestInternerCodecRejectsCorruption(t *testing.T) {
	in := buildTestInterner(t)
	blob := MarshalInterner(in)
	if _, err := UnmarshalInterner(blob[:len(blob)/2]); err == nil {
		t.Fatalf("truncated interner decoded without error")
	}
	if _, err := UnmarshalInterner(nil); err == nil {
		t.Fatalf("empty interner decoded without error")
	}
}

// TestInternerCodecCountBoundedByBlob: a blob's node count is held to
// what its bytes can carry before anything is sized by it. Five bytes
// claiming n=4 and 2^26-1 nodes must fail having allocated less than
// 1 MB; sized by the claim alone they would ask for gigabytes. The
// same holds for a wire view decoded by Unmarshal.
func TestInternerCodecCountBoundedByBlob(t *testing.T) {
	blob := binary.AppendUvarint(binary.AppendUvarint(nil, 4), 1<<26-1)
	if len(blob) != 5 {
		t.Fatalf("blob is %d bytes, want 5", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalInterner(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 5-byte blob claiming 2^26-1 nodes decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the blob allocated %d bytes", alloc)
	}
	// A real blob's count is well inside the bound.
	if _, err := UnmarshalInterner(MarshalInterner(buildTestInterner(t))); err != nil {
		t.Fatalf("a marshalled interner: %v", err)
	}

	// Wire views go through the same decoder: seven bytes claiming
	// n=4 and 2^20 nodes, one leaf present, are turned away just as
	// cheaply, and intern nothing.
	wire := append(binary.AppendUvarint(binary.AppendUvarint(nil, 4), 1<<20), 0, 0, 0)
	if len(wire) != 7 {
		t.Fatalf("wire blob is %d bytes, want 7", len(wire))
	}
	recv := NewInterner(4)
	runtime.ReadMemStats(&before)
	_, err = Unmarshal(recv, wire)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 7-byte view claiming 2^20 nodes decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the wire view allocated %d bytes", alloc)
	}
	if recv.Size() != 0 {
		t.Fatalf("rejecting the wire view interned %d views", recv.Size())
	}
}
