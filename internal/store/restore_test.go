package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
)

// countFS wraps a store filesystem, counting the ReadFile calls on
// snapshot files; while serve is set, every snapshot read returns a
// copy of it instead of the file.
type countFS struct {
	FS
	mu    sync.Mutex
	reads int
	serve []byte
}

func (f *countFS) ReadFile(path string) ([]byte, error) {
	if filepath.Base(filepath.Dir(path)) == "systems" && strings.HasSuffix(path, snapExt) {
		f.mu.Lock()
		f.reads++
		serve := f.serve
		f.mu.Unlock()
		if serve != nil {
			return slices.Clone(serve), nil
		}
	}
	return f.FS.ReadFile(path)
}

func (f *countFS) snapshotReads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

func (f *countFS) serveSnapshot(data []byte) {
	f.mu.Lock()
	f.serve = data
	f.mu.Unlock()
}

// lazyKey is the key the restore tests admit undecoded.
var lazyKey = Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 500}

// evictor is the key the restore tests load to push lazyKey out of a
// one-system store.
var evictor = Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 3}

func evalCompute(f string) func(*system.System) (*knowledge.Bits, error) {
	return func(sys *system.System) (*knowledge.Bits, error) {
		parsed, err := knowledge.Parse(f)
		if err != nil {
			return nil, err
		}
		return knowledge.NewEvaluator(sys).Eval(parsed), nil
	}
}

// lazyStore opens a one-system store over a fresh directory through a
// countFS, computes formula over lazyKey, so that the store writes both
// the snapshot and the result file, and evicts lazyKey. It returns the
// answer the compute gave.
func lazyStore(t *testing.T, formula string) (*Store, *countFS, *Answer) {
	t.Helper()
	fsys := &countFS{FS: OSFS{}}
	s, err := OpenWithFS(t.TempDir(), 1, fsys)
	if err != nil {
		t.Fatal(err)
	}
	ans, origin, err := s.AnswerCtx(context.Background(), lazyKey, formula, evalCompute(formula))
	if err != nil || origin != OriginEnumerated {
		t.Fatalf("%s: origin %v, %v", formula, origin, err)
	}
	if _, _, err := s.System(evictor); err != nil {
		t.Fatal(err)
	}
	return s, fsys, ans
}

// sameAnswer fails the test unless got and want agree on every fact a
// query reads off an answer.
func sameAnswer(t *testing.T, what string, got, want *Answer) {
	t.Helper()
	if got.True != want.True || got.First != want.First || !reflect.DeepEqual(got.Witness, want.Witness) {
		t.Fatalf("%s: %d true, first %d, witness %+v; want %d, %d, %+v",
			what, got.True, got.First, got.Witness, want.True, want.First, want.Witness)
	}
}

// statsSince is now minus base, field by field.
func statsSince(base, now Stats) Stats {
	d := reflect.ValueOf(&now).Elem()
	b := reflect.ValueOf(base)
	for i := range d.NumField() {
		d.Field(i).SetUint(d.Field(i).Uint() - b.Field(i).Uint())
	}
	return now
}

// TestResidentOfKnownKeyReadsNoSnapshot: Resident of a key whose
// snapshot the store wrote reads no snapshot, a result file answers as
// the compute did, and the first compute reads the snapshot once. The
// store's counters move by exactly one restore (evicting the other
// key), one result-file hit, one decode and one compute.
func TestResidentOfKnownKeyReadsNoSnapshot(t *testing.T) {
	const filed, fresh = "C E0 -> Cbox E0", "Cdia E0"
	s, fsys, want := lazyStore(t, filed)
	ctx := context.Background()
	base, reads := s.Stats(), fsys.snapshotReads()

	shape, origin, err := s.Resident(ctx, lazyKey)
	if err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	if got := statsSince(base, s.Stats()); got != (Stats{SystemDiskHits: 1, Evictions: 1}) {
		t.Fatalf("after the restore: %+v", got)
	}
	got, origin, err := s.AnswerCtx(ctx, lazyKey, filed, evalCompute(filed))
	if err != nil || origin != OriginDisk {
		t.Fatalf("%s: origin %v, %v; want the result file", filed, origin, err)
	}
	sameAnswer(t, filed, got, want)
	if r := fsys.snapshotReads() - reads; r != 0 {
		t.Fatalf("a restore and a result-file hit read the snapshot %d times, want 0", r)
	}
	if got := statsSince(base, s.Stats()); got != (Stats{SystemDiskHits: 1, Evictions: 1, SystemMemoryHits: 1, ResultDiskHits: 1}) {
		t.Fatalf("after the result-file hit: %+v", got)
	}

	ref, err := enumerateKey(lazyKey)
	if err != nil {
		t.Fatal(err)
	}
	if shape != shapeOf(ref) {
		t.Fatalf("restored shape %+v, want %+v", shape, shapeOf(ref))
	}
	for i, f := range []string{fresh, "K0 E0"} {
		got, origin, err := s.AnswerCtx(ctx, lazyKey, f, evalCompute(f))
		if err != nil || origin != OriginEnumerated {
			t.Fatalf("%s: origin %v, %v; want a compute", f, origin, err)
		}
		tbl, _ := evalCompute(f)(ref)
		sameAnswer(t, f, got, newAnswer(ref, tbl))
		if r := fsys.snapshotReads() - reads; r != 1 {
			t.Fatalf("after %d computes the snapshot was read %d times, want 1", i+1, r)
		}
		if i == 0 {
			if got := statsSince(base, s.Stats()); got != (Stats{SystemDiskHits: 1, Evictions: 1, SystemMemoryHits: 2, ResultDiskHits: 1, SystemDecodes: 1, ResultComputes: 1}) {
				t.Fatalf("after the first compute: %+v", got)
			}
		}
	}
}

// TestDeletedKnownSnapshotReenumerates: a snapshot the store knows but
// that is gone from disk is not restored from memory of it.
func TestDeletedKnownSnapshotReenumerates(t *testing.T) {
	s, _, _ := lazyStore(t, "K0 E0")
	if err := os.Remove(s.systemPath(lazyKey)); err != nil {
		t.Fatal(err)
	}
	if _, origin, err := s.Resident(context.Background(), lazyKey); err != nil || origin != OriginEnumerated {
		t.Fatalf("Resident over a deleted snapshot: origin %v, %v; want enumerated", origin, err)
	}
	if _, err := os.Stat(s.systemPath(lazyKey)); err != nil {
		t.Fatalf("the snapshot was not rewritten: %v", err)
	}
}

// TestFlipAfterLazyAdmit: a payload byte flipped after a restore that
// read nothing leaves the file's size as it was. Result files still
// answer, and the first compute finds the damage: it quarantines the
// file, re-enumerates, answers correctly and files its result.
func TestFlipAfterLazyAdmit(t *testing.T) {
	const filed, fresh = "C E0 -> Cbox E0", "Cdia E0"
	s, _, want := lazyStore(t, filed)
	ctx := context.Background()
	if _, origin, err := s.Resident(ctx, lazyKey); err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	path := s.systemPath(lazyKey)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, origin, err := s.AnswerCtx(ctx, lazyKey, filed, evalCompute(filed))
	if err != nil || origin != OriginDisk {
		t.Fatalf("%s: origin %v, %v; want the result file", filed, origin, err)
	}
	sameAnswer(t, filed, got, want)

	ref, err := enumerateKey(lazyKey)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := evalCompute(fresh)(ref)
	got, origin, err = s.AnswerCtx(ctx, lazyKey, fresh, evalCompute(fresh))
	if err != nil || origin != OriginEnumerated {
		t.Fatalf("%s: origin %v, %v", fresh, origin, err)
	}
	sameAnswer(t, fresh, got, newAnswer(ref, tbl))
	if st := s.Stats(); st.DiskErrors != 1 || st.Quarantined != 1 || st.Enumerations != 3 {
		t.Fatalf("stats %+v: want one disk error, one quarantined file and a third enumeration", st)
	}
	if qf := s.QuarantinedFiles(); len(qf) != 1 || qf[0] != lazyKey.Slug()+snapExt {
		t.Fatalf("quarantine holds %v, want the flipped snapshot", qf)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeSystem(rewritten); err != nil {
		t.Fatalf("rewritten snapshot does not decode: %v", err)
	}
	if _, err := os.Stat(s.resultPath(Digest(rewritten), fresh)); err != nil {
		t.Fatalf("the re-enumerated system's result was not filed: %v", err)
	}
}

// TestLazyDecodeRejectsOtherSnapshot: at the first compute the file
// system serves a valid snapshot of the same key, but of a system over
// half of the key's failure patterns: it decodes, and its key matches.
// The store must not compute over it: it quarantines the file and
// re-enumerates.
func TestLazyDecodeRejectsOtherSnapshot(t *testing.T) {
	const formula = "Cdia E0"
	s, fsys, _ := lazyStore(t, "K0 E0")
	ctx := context.Background()
	ref, err := enumerateKey(lazyKey)
	if err != nil {
		t.Fatal(err)
	}
	pats := ref.Table().Patterns
	other, err := system.FromPatterns(ref.Params, ref.Mode, ref.Horizon, pats[:len(pats)/2])
	if err != nil {
		t.Fatal(err)
	}
	otherData, err := EncodeSystem(lazyKey, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, origin, err := s.Resident(ctx, lazyKey); err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	fsys.serveSnapshot(otherData)
	var points int
	got, origin, err := s.AnswerCtx(ctx, lazyKey, formula, func(sys *system.System) (*knowledge.Bits, error) {
		points = sys.NumPoints()
		return evalCompute(formula)(sys)
	})
	fsys.serveSnapshot(nil)
	if err != nil || origin != OriginEnumerated {
		t.Fatalf("%s: origin %v, %v", formula, origin, err)
	}
	if points != ref.NumPoints() {
		t.Fatalf("computed over %d points, want the key's %d", points, ref.NumPoints())
	}
	tbl, _ := evalCompute(formula)(ref)
	sameAnswer(t, formula, got, newAnswer(ref, tbl))
	if st := s.Stats(); st.DiskErrors != 1 || st.Quarantined != 1 {
		t.Fatalf("stats %+v: want the other snapshot quarantined", st)
	}
}

// TestLazyDecodeForeignVersionQuarantined: an envelope of another
// version under this build's name, met at the first compute, is
// corrupt. It is quarantined, and the compute runs over a fresh
// enumeration, which rewrites the snapshot and files its result.
func TestLazyDecodeForeignVersionQuarantined(t *testing.T) {
	const formula = "Cdia E0"
	s, _, _ := lazyStore(t, "K0 E0")
	ctx := context.Background()
	if _, origin, err := s.Resident(ctx, lazyKey); err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	path := s.systemPath(lazyKey)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, skewVersion(data), 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := enumerateKey(lazyKey)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := evalCompute(formula)(ref)
	got, origin, err := s.AnswerCtx(ctx, lazyKey, formula, evalCompute(formula))
	if err != nil || origin != OriginEnumerated {
		t.Fatalf("%s: origin %v, %v", formula, origin, err)
	}
	sameAnswer(t, formula, got, newAnswer(ref, tbl))
	if st := s.Stats(); st.Quarantined != 1 || st.DiskErrors != 1 {
		t.Fatalf("stats %+v: want the file quarantined as one disk error", st)
	}
	if qf := s.QuarantinedFiles(); len(qf) != 1 || qf[0] != lazyKey.Slug()+snapExt {
		t.Fatalf("quarantine holds %v, want the other version's snapshot", qf)
	}
	if rewritten, err := os.ReadFile(path); err != nil || !bytes.Equal(rewritten, data) {
		t.Fatalf("snapshot not rewritten as this build's encoding (err %v)", err)
	}
	if _, err := os.Stat(s.resultPath(Digest(data), formula)); err != nil {
		t.Fatalf("the re-enumerated system's result was not filed: %v", err)
	}
}

// TestFlippedOtherSnapshotFilesNoResult covers the one cause of a
// memory-only entry. A valid snapshot of the key's system over half
// its failure patterns sits under the key's name; a cold restore
// decodes it in full and serves it as the key's system (ROADMAP item
// 22), so the store remembers its digest. After an eviction the next
// restore admits the file undecoded, and a byte of it is flipped. The
// first compute quarantines it and runs over a fresh enumeration,
// whose snapshot has another digest, so the answer is filed under
// neither digest.
func TestFlippedOtherSnapshotFilesNoResult(t *testing.T) {
	const formula = "Cdia E0"
	ctx := context.Background()
	ref, err := enumerateKey(lazyKey)
	if err != nil {
		t.Fatal(err)
	}
	pats := ref.Table().Patterns
	other, err := system.FromPatterns(ref.Params, ref.Mode, ref.Horizon, pats[:len(pats)/2])
	if err != nil {
		t.Fatal(err)
	}
	otherData, err := EncodeSystem(lazyKey, other)
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, t.TempDir(), 1)
	path := s.systemPath(lazyKey)
	if err := os.WriteFile(path, otherData, 0o644); err != nil {
		t.Fatal(err)
	}
	if shape, origin, err := s.Resident(ctx, lazyKey); err != nil || origin != OriginDisk || shape != shapeOf(other) {
		t.Fatalf("cold restore: shape %+v, origin %v, %v; want the half system %+v from disk", shape, origin, err, shapeOf(other))
	}
	if _, _, err := s.System(evictor); err != nil {
		t.Fatal(err)
	}
	if _, origin, err := s.Resident(ctx, lazyKey); err != nil || origin != OriginDisk || s.Stats().SystemDecodes != 1 {
		t.Fatalf("restore: origin %v, %v, %d decodes; want an undecoded admission", origin, err, s.Stats().SystemDecodes)
	}
	flipped := slices.Clone(otherData)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, _ := evalCompute(formula)(ref)
	got, origin, err := s.AnswerCtx(ctx, lazyKey, formula, evalCompute(formula))
	if err != nil || origin != OriginEnumerated {
		t.Fatalf("%s: origin %v, %v", formula, origin, err)
	}
	sameAnswer(t, formula, got, newAnswer(ref, tbl))
	if st := s.Stats(); st.Quarantined != 1 || st.DiskErrors != 1 {
		t.Fatalf("stats %+v: want the flipped file quarantined", st)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, digest := range []string{Digest(otherData), Digest(rewritten)} {
		if _, err := os.Stat(s.resultPath(digest, formula)); err == nil {
			t.Fatalf("the answer over the fresh enumeration was filed under %s", digest[:16])
		}
	}
}

// TestFailedFallbackIsNotKept: when the re-enumeration that stands in
// for a snapshot failing its first decode fails too, the compute gets
// the error and the store keeps no entry that would repeat it: the
// next request loads the key afresh.
func TestFailedFallbackIsNotKept(t *testing.T) {
	const formula = "Cdia E0"
	s, _, _ := lazyStore(t, "K0 E0")
	ctx := context.Background()
	if _, origin, err := s.Resident(ctx, lazyKey); err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	if err := os.WriteFile(s.systemPath(lazyKey), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	fail := errors.New("enumerator down")
	s.SetEnumerator(func(Key) (*system.System, error) { return nil, fail })
	if _, _, err := s.AnswerCtx(ctx, lazyKey, formula, evalCompute(formula)); !errors.Is(err, fail) {
		t.Fatalf("compute over a failed fallback: %v, want the enumerator's error", err)
	}
	if s.CachedInMemory(lazyKey) {
		t.Fatal("the entry whose fallback failed stayed resident")
	}
	s.SetEnumerator(nil)
	if _, origin, err := s.AnswerCtx(ctx, lazyKey, formula, evalCompute(formula)); err != nil || origin != OriginEnumerated {
		t.Fatalf("next request: origin %v, %v", origin, err)
	}
}
