package store

import (
	"reflect"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// FuzzDecodeSystem feeds arbitrary bytes to the snapshot decoder. The
// decoder must reject anything that isn't a well-formed snapshot with
// an error — never panic, never over-allocate on fabricated counts —
// because the cache directory is outside the trust boundary of a
// long-lived daemon.
func FuzzDecodeSystem(f *testing.F) {
	key := Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 2}
	sys, err := enumerateKey(key)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeSystem(key, sys)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-digestLen])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	// Checksum-valid, structurally sound, semantically inconsistent: a
	// run whose time-0 view disagrees with its configuration bits.
	f.Add(contradictConfig(valid))
	// Checksum-valid and every checked rule kept, but not the key's
	// system: two runs' later-time views swapped.
	f.Add(swappedViews(f, key))
	// Snapshots of the receiving modes carry the extra per-round
	// receive-schedule section; seed the corpus with both so mutations
	// explore the mode-gated decode path too.
	for _, key := range []Key{
		{N: 2, T: 1, Mode: failures.ReceivingOmission, Horizon: 2, Limit: 100},
		{N: 2, T: 1, Mode: failures.GeneralOmission, Horizon: 2, Limit: 200},
	} {
		sys, err := enumerateKey(key)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := EncodeSystem(key, sys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		cut := append([]byte(nil), blob[:len(blob)*2/3]...)
		f.Add(cut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		gotKey, got, err := DecodeSystem(data)
		if err != nil {
			return
		}
		// Anything that decodes must be internally consistent, and hold
		// its key's enumeration in the builder's layout.
		if verr := gotKey.Validate(); verr != nil {
			t.Fatalf("decoded system under invalid key %+v: %v", gotKey, verr)
		}
		if got.Interner == nil {
			t.Fatal("decoded system has no interner")
		}
		pats, err := failures.Enum(gotKey.Mode, gotKey.N, gotKey.T, gotKey.Horizon, gotKey.Limit)
		if err != nil {
			t.Fatalf("decoded a system of %s, whose enumeration fails: %v", gotKey, err)
		}
		tbl := got.Table()
		if len(tbl.Patterns) != len(pats) || got.NumRuns() != len(pats)<<gotKey.N {
			t.Fatalf("decoded %d patterns and %d runs, the enumeration of %s %d and %d",
				len(tbl.Patterns), got.NumRuns(), gotKey, len(pats), len(pats)<<gotKey.N)
		}
		for i, pat := range pats {
			if tbl.Patterns[i].Key() != pat.Key() {
				t.Fatalf("pattern %d is %s, the enumeration's %s", i, tbl.Patterns[i], pat)
			}
		}
		for r := 0; r < got.NumRuns(); r++ {
			run := got.Run(r)
			if int(tbl.PatternOf[r]) != r>>gotKey.N || run.ConfigBits() != uint64(r)&(1<<gotKey.N-1) {
				t.Fatalf("run %d is (config %#x, pattern %d), out of the builder's layout", r, run.ConfigBits(), tbl.PatternOf[r])
			}
			for p, id := range run.Row(0) {
				if got.Interner.Initial(id) != run.Initial(types.ProcID(p)) {
					t.Fatalf("run %d: processor %d's view and the run's configuration disagree on its initial value", r, p)
				}
			}
		}
	})
}

// FuzzDecodeResult does the same for the result envelope, and holds
// whatever decodes to a round trip through EncodeResult.
func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult("Cbox E0", &Answer{True: 22, First: -1}))
	f.Add([]byte(bitsMagic))
	f.Add([]byte{})
	f.Add(EncodeResult("C E0 -> Cbox E0", &Answer{
		True: 5, First: 2,
		Witness: &Witness{Config: "011", Pattern: "crash: faulty={1} p1[crash@1 silent to {0}]"},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, got, err := DecodeResult(data)
		if err != nil {
			return
		}
		again, ans, err := DecodeResult(EncodeResult(formula, got))
		if err != nil || again != formula || !reflect.DeepEqual(ans, got) {
			t.Fatalf("decoded %q %+v, which re-encodes to %q %+v (%v)", formula, got, again, ans, err)
		}
	})
}
