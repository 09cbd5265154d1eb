package store

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
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
			// The indistinguishability classes survive: the rows above hold
			// the same IDs in the same slots, and the IDs denote the same
			// views.
			if !bytes.Equal(views.MarshalInterner(got.Interner), views.MarshalInterner(sys.Interner)) {
				t.Fatal("decoded interner holds different views under the same IDs")
			}
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
		// The checksum is verified beside the decode, and its mismatch
		// outranks whatever the decode made of the flipped byte.
		if _, _, err := DecodeSystem(bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("snapshot with byte %d flipped: %v, want a checksum mismatch", flip, err)
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
	for _, want := range []struct {
		formula string
		ans     Answer
	}{
		{"Cbox E0 -> C E0", Answer{True: 40, First: -1}},
		{"C E0 -> Cbox E0", Answer{True: 7, First: 3, Witness: &Witness{Config: "011", Pattern: "crash: faulty={1} p1[crash@1 silent to {0}]"}}},
	} {
		data := EncodeResult(want.formula, &want.ans)
		formula, got, err := DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if formula != want.formula || !reflect.DeepEqual(*got, want.ans) {
			t.Fatalf("round trip gave %q %+v, want %q %+v", formula, got, want.formula, want.ans)
		}
		if _, _, err := DecodeResult(data[:len(data)-3]); err == nil {
			t.Fatal("truncated result decoded without error")
		}
		bad := append([]byte(nil), data...)
		bad[len(bitsMagic)+2] ^= 1
		if _, _, err := DecodeResult(bad); err == nil {
			t.Fatal("corrupted result decoded without error")
		}
		// Each field is length-prefixed: a file cut short of its last
		// field, resealed, is rejected by the decoder, not the envelope.
		pattern := ""
		if w := want.ans.Witness; w != nil {
			pattern = w.Pattern
		}
		cut := len(data) - digestLen - len(pattern) - 1
		short := reseal(append(append([]byte(nil), data[:cut]...), make([]byte, digestLen)...))
		if _, _, err := DecodeResult(short); err == nil {
			t.Fatal("result without its pattern field decoded without error")
		}
	}
}

// reseal recomputes the SHA-256 trailer after a deliberate payload
// edit, so tests can target one specific rejection path.
func reseal(data []byte) []byte {
	payload := data[:len(data)-digestLen]
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// TestKeySlug pins the slug of every mode, with and without a limit:
// snapshot file names, inventory rows and span labels all use it.
func TestKeySlug(t *testing.T) {
	for _, tc := range []struct {
		key  Key
		want string
	}{
		{Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 3}, "crash-n3-t1-h3"},
		{Key{N: 4, T: 2, Mode: failures.Crash, Horizon: 4, Limit: 7}, "crash-n4-t2-h4-l7"},
		{Key{N: 4, T: 2, Mode: failures.Omission, Horizon: 2}, "omission-n4-t2-h2"},
		{Key{N: 4, T: 2, Mode: failures.Omission, Horizon: 2, Limit: 2_000_000}, "omission-n4-t2-h2-l2000000"},
		{Key{N: 3, T: 1, Mode: failures.ReceivingOmission, Horizon: 2}, "receiving-omission-n3-t1-h2"},
		{Key{N: 3, T: 1, Mode: failures.ReceivingOmission, Horizon: 2, Limit: 2_000_000}, "receiving-omission-n3-t1-h2-l2000000"},
		{Key{N: 3, T: 1, Mode: failures.GeneralOmission, Horizon: 2}, "general-omission-n3-t1-h2"},
		{Key{N: 12, T: 10, Mode: failures.GeneralOmission, Horizon: 11, Limit: 1}, "general-omission-n12-t10-h11-l1"},
	} {
		if got := tc.key.Slug(); got != tc.want {
			t.Errorf("Slug(%+v) = %q, want %q", tc.key, got, tc.want)
		}
		if got := tc.key.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.key, got, tc.want)
		}
	}
}
