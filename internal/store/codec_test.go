package store

import (
	"crypto/sha256"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

func testKey() Key {
	return Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 2}
}

func enumerateTestSystem(t testing.TB, key Key) *system.System {
	t.Helper()
	sys, err := enumerateKey(key)
	if err != nil {
		t.Fatalf("enumerate %s: %v", key, err)
	}
	return sys
}

func TestCodecRoundTrip(t *testing.T) {
	for _, key := range []Key{
		testKey(),
		{N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 500},
		{N: 4, T: 1, Mode: failures.Crash, Horizon: 2},
		{N: 3, T: 1, Mode: failures.ReceivingOmission, Horizon: 2, Limit: 500},
		{N: 3, T: 1, Mode: failures.GeneralOmission, Horizon: 2, Limit: 1000},
		{N: 2, T: 1, Mode: failures.GeneralOmission, Horizon: 3, Limit: 2000},
	} {
		t.Run(key.Slug(), func(t *testing.T) {
			sys := enumerateTestSystem(t, key)
			data, err := EncodeSystem(key, sys)
			if err != nil {
				t.Fatalf("EncodeSystem: %v", err)
			}
			gotKey, got, err := DecodeSystem(data)
			if err != nil {
				t.Fatalf("DecodeSystem: %v", err)
			}
			if gotKey != key {
				t.Fatalf("decoded key %s, want %s", gotKey, key)
			}
			if got.NumRuns() != sys.NumRuns() || got.NumPoints() != sys.NumPoints() {
				t.Fatalf("decoded %d runs / %d points, want %d / %d",
					got.NumRuns(), got.NumPoints(), sys.NumRuns(), sys.NumPoints())
			}
			if got.Interner.Size() != sys.Interner.Size() {
				t.Fatalf("decoded interner has %d views, want %d", got.Interner.Size(), sys.Interner.Size())
			}
			for r := 0; r < sys.NumRuns(); r++ {
				run := sys.Run(r)
				dec := got.Run(r)
				if dec.ConfigBits() != run.ConfigBits() {
					t.Fatalf("run %d config differs", r)
				}
				if dec.Pattern().Key() != run.Pattern().Key() {
					t.Fatalf("run %d pattern %q, want %q", r, dec.Pattern().Key(), run.Pattern().Key())
				}
				for m := 0; m <= key.Horizon; m++ {
					for p, id := range run.Row(m) {
						if dec.Row(m)[p] != id {
							t.Fatalf("run %d time %d proc %d: view %d, want %d", r, m, p, dec.Row(m)[p], id)
						}
					}
				}
			}
			// The indistinguishability index survives: every point class
			// matches.
			sys.ForEachPoint(func(pt system.Point) {
				for p := 0; p < key.N; p++ {
					id := sys.ViewAt(pt, types.ProcID(p))
					a, b := sys.PointIdxWithView(id), got.PointIdxWithView(id)
					if len(a) != len(b) {
						t.Fatalf("view %d class has %d points decoded, want %d", id, len(b), len(a))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("view %d class differs at %d", id, i)
						}
					}
				}
			})
			// Deterministic: re-encoding either side is byte-identical.
			again, err := EncodeSystem(key, got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if Digest(again) != Digest(data) {
				t.Fatalf("re-encoded digest %s, want %s", Digest(again), Digest(data))
			}
		})
	}
}

// TestCodecGoldenDigest pins the snapshot encoding, one golden per
// failure mode: if a digest changes, the codec's output changed, and
// snapVersion must be bumped so stale on-disk snapshots are rejected
// instead of misread. The crash and sending-omission pins predate the
// receiving modes — the codec gates receive schedules on
// Mode.HasReceivingFaults(), so adding those modes must never move a
// sending-mode byte.
func TestCodecGoldenDigest(t *testing.T) {
	cases := []struct {
		key    Key
		golden string
	}{
		{testKey(),
			"bb657aa409b130922f91336993b2f761f3351f004e03fca7ee8e6175122b4b78"},
		{Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 2_000_000},
			"72d7bb575ebedb0737ae023807e808525324ac37727a27fd379a5255c05b7cd9"},
		{Key{N: 3, T: 1, Mode: failures.ReceivingOmission, Horizon: 2, Limit: 2_000_000},
			"e792e7e13f6099e75bbd50580308bd9400a568699a3e7d6d36c2b4496369886e"},
		{Key{N: 3, T: 1, Mode: failures.GeneralOmission, Horizon: 2, Limit: 2_000_000},
			"cc01d4fc84845682a98d417f0192e0cbb530ed7613fd2a042644417ad5687136"},
		{Key{N: 2, T: 1, Mode: failures.GeneralOmission, Horizon: 2, Limit: 2_000_000},
			"d21273ff78db10c9be298f628918fa961ae21863330bea6d2a8ed7261a9af5f5"},
	}
	for _, tc := range cases {
		t.Run(tc.key.Slug(), func(t *testing.T) {
			sys := enumerateTestSystem(t, tc.key)
			data, err := EncodeSystem(tc.key, sys)
			if err != nil {
				t.Fatal(err)
			}
			if got := Digest(data); got != tc.golden {
				t.Fatalf("snapshot digest = %s, golden = %s\n(If the codec or the enumeration order changed on purpose, bump snapVersion and update this golden.)", got, tc.golden)
			}
		})
	}
}

// TestDecodeAllocatesPerPatternNotPerRun is the decoder's side of the
// allocation bound in internal/system: a snapshot of the system built
// over a pattern list given twice holds as many runs again but the
// same patterns (the encoder writes each once) and the same views, so
// decoding it may allocate under a quarter of an allocation per added
// run more — one object per run would be four times that. Patterns
// are decoded into slabs, so the same bound holds per pattern (an
// eighth as many as runs), for the added allocations and for the whole
// decode. Counted, not timed.
func TestDecodeAllocatesPerPatternNotPerRun(t *testing.T) {
	key := Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 3}
	pats, err := failures.EnumOmission(key.N, key.T, key.Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(list []*failures.Pattern) []byte {
		sys, err := system.FromPatterns(types.Params{N: key.N, T: key.T}, key.Mode, key.Horizon, list)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeSystem(key, sys)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	decode := func(data []byte) func() {
		return func() {
			if _, _, err := DecodeSystem(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	once := testing.AllocsPerRun(5, decode(snapshot(pats)))
	both := testing.AllocsPerRun(5, decode(snapshot(append(append([]*failures.Pattern(nil), pats...), pats...))))
	added := float64(len(pats) << uint(key.N))
	t.Logf("%v allocations for %v runs, %v for twice the runs", once, added, both)
	if both-once >= added/4 {
		t.Fatalf("%v runs added %v allocations (%v → %v): the decoder allocates per run", added, both-once, once, both)
	}
	if npats := float64(len(pats)); both-once >= npats/4 || once >= npats/4 {
		t.Fatalf("%v allocations to decode %v patterns, %v more for the list given twice: the decoder allocates per pattern", once, npats, both-once)
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	key := testKey()
	data, err := EncodeSystem(key, enumerateTestSystem(t, key))
	if err != nil {
		t.Fatal(err)
	}
	// The version uvarint sits right after the magic; bump it and
	// re-seal the checksum so only the version is wrong.
	bad := append([]byte(nil), data...)
	bad[len(snapMagic)] = snapVersion + 1
	bad = reseal(bad)
	if _, _, err := DecodeSystem(bad); err == nil {
		t.Fatal("version-bumped snapshot decoded without error")
	}
}

func TestDecodeRejectsTruncationAndCorruption(t *testing.T) {
	key := testKey()
	data, err := EncodeSystem(key, enumerateTestSystem(t, key))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, digestLen, digestLen + 7, len(data) / 2, len(data) - 1} {
		if _, _, err := DecodeSystem(data[:len(data)-cut]); err == nil {
			t.Fatalf("snapshot truncated by %d bytes decoded without error", cut)
		}
	}
	for _, flip := range []int{len(snapMagic) + 3, len(data) / 3, len(data) - digestLen - 1} {
		bad := append([]byte(nil), data...)
		bad[flip] ^= 0x40
		if _, _, err := DecodeSystem(bad); err == nil {
			t.Fatalf("snapshot with byte %d flipped decoded without error", flip)
		}
	}
	if _, _, err := DecodeSystem([]byte("EBASNAP")); err == nil {
		t.Fatal("bare magic decoded without error")
	}
	if _, _, err := DecodeSystem(nil); err == nil {
		t.Fatal("nil snapshot decoded without error")
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	formula := "Cbox E0 -> C E0"
	payload := []byte{1, 2, 3, 4, 5}
	data := EncodeResult(formula, payload)
	gotF, gotP, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotF != formula || string(gotP) != string(payload) {
		t.Fatalf("round trip gave (%q, %v)", gotF, gotP)
	}
	if _, _, err := DecodeResult(data[:len(data)-3]); err == nil {
		t.Fatal("truncated result decoded without error")
	}
	bad := append([]byte(nil), data...)
	bad[len(bitsMagic)+2] ^= 1
	if _, _, err := DecodeResult(bad); err == nil {
		t.Fatal("corrupted result decoded without error")
	}
}

// reseal recomputes the SHA-256 trailer after a deliberate payload
// edit, so tests can target one specific rejection path.
func reseal(data []byte) []byte {
	payload := data[:len(data)-digestLen]
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}
