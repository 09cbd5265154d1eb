package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// corruptions enumerates the disk-corruption shapes the store must
// survive: each one makes the snapshot undecodable in a different way
// (mid-payload flip is covered by TestCorruptSnapshotFallsBackToEnumeration).
var corruptions = []struct {
	name    string
	corrupt func([]byte) []byte
}{
	{"truncated-trailer", func(data []byte) []byte {
		// Cut into the sha256 trailer so the file is shorter than its
		// framing promises.
		return data[:len(data)-digestLen/2]
	}},
	{"flipped-sha-byte", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(out)-1] ^= 0xff
		return out
	}},
	{"config-contradicts-views", contradictConfig},
}

// contradictConfig flips processor 0's initial value in run 0's
// configuration bits, leaves the run's views alone and recomputes the
// trailer: a snapshot with a valid checksum in which ∃0 and init_0=v,
// read off the bits, contradict what every processor's view records.
// Only the decoder's check of each time-0 row against its bits
// rejects it.
func contradictConfig(data []byte) []byte {
	out := append([]byte(nil), data...)
	d := decoder{buf: out[len(snapMagic) : len(out)-digestLen]}
	d.uvarint() // version
	d.uvarint() // n
	d.uvarint() // t
	mode := failures.Mode(d.uvarint())
	horizon := int(d.uvarint())
	d.uvarint() // limit
	d.bytes(int(d.uvarint()))
	for npats := d.uvarint(); npats > 0; npats-- {
		schedules := types.ProcSet(d.uvarint()).Len() * horizon
		if mode.HasReceivingFaults() {
			schedules *= 2
		}
		for ; schedules > 0; schedules-- {
			d.uvarint()
		}
	}
	d.uvarint() // run count; the cursor is now on run 0's configuration bits
	if d.err != nil {
		panic(d.err)
	}
	out[len(snapMagic)+d.pos] ^= 1
	sum := sha256.Sum256(out[:len(out)-digestLen])
	copy(out[len(out)-digestLen:], sum[:])
	return out
}

// TestDecodeRejectsConfigContradictingViews pins what rejects the
// crafted snapshot: the envelope verifies, the decoder refuses, and
// the error names the contradiction.
func TestDecodeRejectsConfigContradictingViews(t *testing.T) {
	for _, key := range []Key{
		testKey(),
		{N: 2, T: 1, Mode: failures.GeneralOmission, Horizon: 2},
	} {
		sys, err := enumerateKey(key)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeSystem(key, sys)
		if err != nil {
			t.Fatal(err)
		}
		bad := contradictConfig(data)
		if err := VerifySnapshot(bad); err != nil {
			t.Fatalf("%s: crafted snapshot fails its envelope check: %v", key, err)
		}
		_, _, err = DecodeSystem(bad)
		if err == nil || !strings.Contains(err.Error(), "in the run's configuration") {
			t.Fatalf("%s: decoding a run whose views contradict its configuration: %v", key, err)
		}
	}
}

// skewVersion bumps the version varint (offset = len(magic), one byte
// for snapshots and results alike) and recomputes the trailer,
// yielding a checksum-valid blob that only the version check rejects:
// the envelope another build writes under its own file name.
func skewVersion(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(snapMagic)]++
	sum := sha256.Sum256(out[:len(out)-digestLen])
	copy(out[len(out)-digestLen:], sum[:])
	return out
}

// TestCorruptionFallsBackWithoutPoisoning checks every corruption
// shape against the full recovery contract: concurrent loads collapse
// into one re-enumeration (singleflight intact), the result enters the
// LRU as a healthy entry (later hits are memory hits), and the
// snapshot is rewritten so the next process warm-loads from disk.
func TestCorruptionFallsBackWithoutPoisoning(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := testKey()
			s1, _ := countingStore(t, dir, 4)
			if _, _, err := s1.System(key); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "systems", key.Slug()+snapExt)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeSystem(tc.corrupt(data)); err == nil {
				t.Fatal("corruption did not make the snapshot undecodable")
			}

			s2, count := countingStore(t, dir, 4)
			var wg sync.WaitGroup
			errs := make([]error, 8)
			origins := make([]Origin, 8)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, origins[i], errs[i] = s2.System(key)
				}(i)
			}
			wg.Wait()
			for i := range errs {
				if errs[i] != nil {
					t.Fatalf("load %d: %v", i, errs[i])
				}
				if origins[i] != OriginEnumerated && origins[i] != OriginShared && origins[i] != OriginMemory {
					t.Fatalf("load %d: origin %v after corruption", i, origins[i])
				}
			}
			if got := count.Load(); got != 1 {
				t.Fatalf("singleflight poisoned: %d enumerations for 8 concurrent loads", got)
			}
			if s2.Stats().DiskErrors == 0 {
				t.Fatal("disk error not recorded")
			}
			// The LRU holds a healthy entry now: no more enumerations,
			// no disk reads.
			if _, origin, err := s2.System(key); err != nil || origin != OriginMemory {
				t.Fatalf("post-recovery load: origin %v err %v, want memory hit", origin, err)
			}
			if got := count.Load(); got != 1 {
				t.Fatalf("LRU poisoned: %d enumerations after recovery", got)
			}
			// The snapshot was rewritten in place and decodes cleanly.
			rewritten, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeSystem(rewritten); err != nil {
				t.Fatalf("rewritten snapshot does not decode: %v", err)
			}
			s3, count3 := countingStore(t, dir, 4)
			if _, origin, err := s3.System(key); err != nil || origin != OriginDisk || count3.Load() != 0 {
				t.Fatalf("rewritten snapshot not warm-loadable: origin %v err %v", origin, err)
			}
		})
	}
}

// TestKnownDigestCorruptionQuarantines: a store that has decoded a
// snapshot knows its digest, and a payload byte flipped on disk leaves
// the trailer, and so the digest, as it was. The same store's next
// restore must still see the corruption: quarantine the file and
// re-enumerate, as a fresh store does.
func TestKnownDigestCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	if _, _, err := mustOpen(t, dir, 1).System(key); err != nil {
		t.Fatal(err)
	}
	s, count := countingStore(t, dir, 1)
	if _, origin, err := s.System(key); err != nil || origin != OriginDisk || s.Stats().SystemDecodes != 1 {
		t.Fatalf("restore: origin %v, %v, %d decodes; want a full decode from disk", origin, err, s.Stats().SystemDecodes)
	}
	if _, _, err := s.System(Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 3}); err != nil { // evicts key
		t.Fatal(err)
	}
	path := filepath.Join(dir, "systems", key.Slug()+snapExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := count.Load()
	if _, origin, err := s.System(key); err != nil || origin != OriginEnumerated || count.Load() != before+1 {
		t.Fatalf("restore of a corrupted known snapshot: origin %v, %v, %d enumerations; want one re-enumeration",
			origin, err, count.Load()-before)
	}
	if qf := s.QuarantinedFiles(); len(qf) != 1 || qf[0] != key.Slug()+snapExt {
		t.Fatalf("quarantine holds %v, want the corrupted snapshot", qf)
	}
	if st := s.Stats(); st.DiskErrors != 1 || st.Quarantined != 1 {
		t.Fatalf("stats %+v, want one disk error and one quarantined file", st)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSystem(rewritten); err != nil {
		t.Fatalf("rewritten snapshot does not decode: %v", err)
	}
}

// TestVersionSkewFallsBackWithoutDestroying pins the naming rule for
// snapshots. A checksum-valid envelope of another version at an older
// build's name, <slug>.eba, is never read, quarantined or overwritten:
// the first store enumerates the key once and files <slug>.v1.eba, and
// a reopened store restores that. The same envelope under this build's
// name is corrupt: the boot scan quarantines it and the next request
// re-enumerates and rewrites the file.
func TestVersionSkewFallsBackWithoutDestroying(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	data, err := EncodeSystem(key, enumerateTestSystem(t, key))
	if err != nil {
		t.Fatal(err)
	}
	foreign := skewVersion(data)
	oldPath := filepath.Join(dir, "systems", key.Slug()+".eba")
	if err := os.MkdirAll(filepath.Dir(oldPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	var path string
	for i, want := range []Origin{OriginEnumerated, OriginDisk} {
		s, count := countingStore(t, dir, 4)
		path = s.systemPath(key)
		if _, origin, err := s.System(key); err != nil || origin != want || count.Load() != int64(1-i) {
			t.Fatalf("store %d: origin %v, %v, %d enumerations; want %v", i, origin, err, count.Load(), want)
		}
		if st := s.Stats(); st.SystemDecodes != uint64(i) || st.Quarantined != 0 || st.DiskErrors != 0 {
			t.Fatalf("store %d: stats %+v; want %d decodes and no disk error", i, st, i)
		}
		if snaps := s.DiskSnapshots(); len(snaps) != 1 || snaps[0] != filepath.Base(path) {
			t.Fatalf("store %d: snapshots %v, want this build's file only", i, snaps)
		}
		if after, err := os.ReadFile(oldPath); err != nil || !bytes.Equal(after, foreign) {
			t.Fatalf("store %d changed the older build's snapshot (err %v)", i, err)
		}
	}
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	s, count := countingStore(t, dir, 4)
	if qf := s.QuarantinedFiles(); len(qf) != 1 || qf[0] != filepath.Base(path) {
		t.Fatalf("boot scan quarantined %v, want the other version under this build's name", qf)
	}
	if _, origin, err := s.System(key); err != nil || origin != OriginEnumerated || count.Load() != 1 {
		t.Fatalf("after the quarantine: origin %v, %v, %d enumerations; want one", origin, err, count.Load())
	}
	if rewritten, err := os.ReadFile(path); err != nil || !bytes.Equal(rewritten, data) {
		t.Fatalf("snapshot not rewritten as this build's encoding (err %v)", err)
	}
}

// TestResultVersionSkewFallsBack: builds before result version 3
// named a result file <hash>.bits, and this one names it
// <hash>.v3.bits, so a daemon upgraded in place over an older build's
// cache directory does not read the old file. It computes the answer
// once and files it under its own name, and a reopened store answers
// from disk with no compute. The old file is neither quarantined nor
// rewritten: the build that wrote it still reads it.
func TestResultVersionSkewFallsBack(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	const formula = "K0 decided0"
	if _, _, err := mustOpen(t, dir, 4).System(key); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "systems", key.Slug()+snapExt))
	if err != nil {
		t.Fatal(err)
	}
	// A checksum-valid version-2 envelope at the name version 2 gave it.
	fsum := sha256.Sum256([]byte(formula))
	oldPath := filepath.Join(dir, "results", Digest(snap)[:16], hex.EncodeToString(fsum[:12])+".bits")
	old := appendString(append([]byte(bitsMagic), 2), formula)
	sum := sha256.Sum256(old)
	old = append(old, sum[:]...)
	if err := os.MkdirAll(filepath.Dir(oldPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	computes := 0
	compute := func(sys *system.System) (*knowledge.Bits, error) {
		computes++
		return knowledge.NewBits(sys.NumPoints()), nil
	}
	var newPath string
	for i, want := range []Origin{OriginEnumerated, OriginDisk} {
		s := mustOpen(t, dir, 4)
		newPath = s.resultPath(Digest(snap), formula)
		if _, origin, err := s.Result(key, formula, compute); err != nil || origin != want || computes != 1 {
			t.Fatalf("store %d: origin %v, err %v, %d computes; want %v after one compute", i, origin, err, computes, want)
		}
		if qf := s.QuarantinedFiles(); len(qf) != 0 {
			t.Fatalf("store %d quarantined %v", i, qf)
		}
		if _, err := os.Stat(newPath); err != nil {
			t.Fatalf("store %d: no result file under this build's name: %v", i, err)
		}
		if after, err := os.ReadFile(oldPath); err != nil || !bytes.Equal(after, old) {
			t.Fatalf("store %d changed the version-2 result file (err %v)", i, err)
		}
	}
	// The same envelope under this build's name is corrupt: the
	// recovery scan quarantines it.
	if err := os.WriteFile(newPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if qf := mustOpen(t, dir, 4).QuarantinedFiles(); len(qf) != 1 {
		t.Fatalf("quarantined %v, want the version-2 envelope under the version-3 name", qf)
	}
}

// TestMisshapenResultFileQuarantined: a result file whose envelope
// verifies but whose answer cannot be the system's is quarantined and
// recomputed around, one row per shape rule: True ≤ Points, First <
// Points, First < 0 exactly when True == Points, and witness text
// present exactly when First ≥ 0. Each row breaks one rule only.
func TestMisshapenResultFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	const formula = "C E0 -> Cbox E0"
	compute := func(sys *system.System) (*knowledge.Bits, error) {
		f, err := knowledge.Parse(formula)
		if err != nil {
			return nil, err
		}
		return knowledge.NewEvaluator(sys).Eval(f), nil
	}
	want, _, err := mustOpen(t, dir, 4).Result(key, formula, compute)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := mustOpen(t, "", 4).System(key)
	if err != nil {
		t.Fatal(err)
	}
	points, w := sys.NumPoints(), *want.Witness
	if want.First < 0 || want.True == 0 {
		t.Fatalf("answer %+v: the rows below need a falsified formula true somewhere", want)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.bits"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one result file, got %v (%v)", matches, err)
	}
	path := matches[0]
	for _, tc := range []struct {
		name string
		ans  Answer
	}{
		{"more-true-points-than-points", Answer{True: points + 1, First: want.First, Witness: &w}},
		{"first-false-point-past-the-end", Answer{True: want.True, First: points, Witness: &w}},
		{"valid-with-false-points", Answer{True: points - 1, First: -1}},
		{"falsified-with-every-point-true", Answer{True: points, First: want.First, Witness: &w}},
		{"witness-of-a-valid-formula", Answer{True: points, First: -1, Witness: &w}},
		{"falsified-without-witness", Answer{True: want.True, First: want.First}},
		{"witness-without-pattern", Answer{True: want.True, First: want.First, Witness: &Witness{Config: w.Config}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, EncodeResult(formula, &tc.ans), 0o644); err != nil {
				t.Fatal(err)
			}
			s := mustOpen(t, dir, 4)
			quarantined := len(s.QuarantinedFiles())
			got, origin, err := s.Result(key, formula, compute)
			if err != nil || origin != OriginEnumerated || !reflect.DeepEqual(got, want) {
				t.Fatalf("over the misshapen file: %+v, origin %v, %v; want %+v recomputed", got, origin, err, want)
			}
			if st := s.Stats(); st.DiskErrors != 1 || len(s.QuarantinedFiles()) != quarantined+1 {
				t.Fatalf("stats %+v, quarantine %v: want the file quarantined as one disk error", st, s.QuarantinedFiles())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, rewritten, err := DecodeResult(data); err != nil || rewritten.True != want.True || rewritten.First != want.First {
				t.Fatalf("rewritten result file: %+v, %v", rewritten, err)
			}
		})
	}
}
