package store

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
)

// countingStore wraps a store's enumerate hook with an invocation
// counter, the observable singleflight and cache tests assert on.
func countingStore(t *testing.T, dir string, maxMem int) (*Store, *atomic.Int64) {
	t.Helper()
	s, err := Open(dir, maxMem)
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	inner := s.enumerate
	s.enumerate = func(k Key) (*system.System, error) {
		count.Add(1)
		return inner(k)
	}
	return s, &count
}

func TestSingleflightDedup(t *testing.T) {
	s, count := countingStore(t, t.TempDir(), 4)
	key := Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 500}

	// Gate the enumeration open until every requester has launched, so
	// the N concurrent gets genuinely overlap one in-flight load
	// instead of racing past a completed one.
	release := make(chan struct{})
	inner := s.enumerate
	s.enumerate = func(k Key) (*system.System, error) {
		<-release
		return inner(k) // inner already counts
	}

	const goroutines = 16
	var launched, wg sync.WaitGroup
	launched.Add(goroutines)
	sysCh := make(chan *system.System, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			launched.Done()
			sys, _, err := s.System(key)
			if err != nil {
				t.Error(err)
				return
			}
			sysCh <- sys
		}()
	}
	launched.Wait()
	time.Sleep(50 * time.Millisecond) // let the stragglers reach the store
	close(release)
	wg.Wait()
	close(sysCh)
	if got := count.Load(); got != 1 {
		t.Fatalf("%d concurrent gets ran %d enumerations, want exactly 1", goroutines, got)
	}
	var first *system.System
	for sys := range sysCh {
		if first == nil {
			first = sys
		} else if sys != first {
			t.Fatal("concurrent gets returned distinct system instances")
		}
	}
	st := s.Stats()
	if st.Enumerations != 1 || st.SharedLoads+st.SystemMemoryHits != goroutines-1 || st.SharedLoads == 0 {
		t.Fatalf("stats = %+v, want 1 enumeration and %d requests answered by it", st, goroutines-1)
	}
}

func TestWarmLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	key := testKey()

	cold, coldCount := countingStore(t, dir, 4)
	sys1, origin, err := cold.System(key)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginEnumerated || coldCount.Load() != 1 {
		t.Fatalf("cold load: origin %v, %d enumerations", origin, coldCount.Load())
	}
	// Second call in the same store: memory hit.
	if _, origin, _ = cold.System(key); origin != OriginMemory {
		t.Fatalf("second load: origin %v, want memory", origin)
	}

	// A fresh store over the same directory loads the snapshot, never
	// enumerating.
	warm, warmCount := countingStore(t, dir, 4)
	sys2, origin, err := warm.System(key)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDisk || warmCount.Load() != 0 {
		t.Fatalf("warm load: origin %v, %d enumerations, want disk hit and 0", origin, warmCount.Load())
	}
	if sys2.NumPoints() != sys1.NumPoints() || sys2.Interner.Size() != sys1.Interner.Size() {
		t.Fatal("warm-loaded system differs from the enumerated one")
	}
	if snaps := warm.DiskSnapshots(); len(snaps) != 1 || snaps[0] != key.Slug()+snapExt {
		t.Fatalf("DiskSnapshots = %v", snaps)
	}
}

func TestCorruptSnapshotFallsBackToEnumeration(t *testing.T) {
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
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, count := countingStore(t, dir, 4)
	_, origin, err := s2.System(key)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginEnumerated || count.Load() != 1 {
		t.Fatalf("corrupt snapshot: origin %v, %d enumerations, want re-enumeration", origin, count.Load())
	}
	if s2.Stats().DiskErrors == 0 {
		t.Fatal("disk error not recorded")
	}
	// The snapshot was rewritten: a third store warm-loads again.
	s3, count3 := countingStore(t, dir, 4)
	if _, origin, err := s3.System(key); err != nil || origin != OriginDisk || count3.Load() != 0 {
		t.Fatalf("rewritten snapshot not loadable: origin %v err %v", origin, err)
	}
}

func TestLRUEviction(t *testing.T) {
	s, count := countingStore(t, "", 2)
	keys := []Key{
		{N: 3, T: 1, Mode: failures.Crash, Horizon: 2},
		{N: 3, T: 1, Mode: failures.Crash, Horizon: 3},
		{N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 500},
	}
	for _, k := range keys {
		if _, _, err := s.System(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Inventory()); got != 2 {
		t.Fatalf("inventory has %d entries, want 2 (maxMem)", got)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// keys[0] was evicted; memory-only store must re-enumerate it.
	before := count.Load()
	if _, origin, err := s.System(keys[0]); err != nil || origin != OriginEnumerated {
		t.Fatalf("evicted key reload: origin %v err %v", origin, err)
	}
	if count.Load() != before+1 {
		t.Fatal("evicted key did not re-enumerate")
	}
	// keys[2] is still resident.
	if _, origin, _ := s.System(keys[2]); origin != OriginMemory {
		t.Fatalf("resident key reload: origin %v, want memory", origin)
	}
}

func TestResultMemoAndPersistence(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	compute := func(sys *system.System) (*knowledge.Bits, error) {
		e := knowledge.NewEvaluator(sys)
		f, err := knowledge.Parse("Cbox E0 -> C E0")
		if err != nil {
			return nil, err
		}
		return e.Eval(f), nil
	}

	s1, _ := countingStore(t, dir, 4)
	ans, origin, err := s1.Result(key, "Cbox E0 -> C E0", compute)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginEnumerated || ans.First >= 0 {
		t.Fatalf("first result: origin %v, first false point %d (the formula is Theorem 3.3, must be valid)", origin, ans.First)
	}
	if _, origin, _ = s1.Result(key, "Cbox E0 -> C E0", compute); origin != OriginMemory {
		t.Fatalf("memoized result: origin %v, want memory", origin)
	}

	// A fresh store finds the truth table on disk — no recompute.
	s2, _ := countingStore(t, dir, 4)
	ans2, origin, err := s2.Result(key, "Cbox E0 -> C E0", compute)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDisk {
		t.Fatalf("persisted result: origin %v, want disk", origin)
	}
	if !reflect.DeepEqual(ans2, ans) {
		t.Fatalf("persisted answer %+v differs from computed %+v", ans2, ans)
	}
	if st := s2.Stats(); st.ResultDiskHits != 1 || st.ResultComputes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentResultSingleflight(t *testing.T) {
	s, _ := countingStore(t, "", 4)
	key := testKey()
	var computes atomic.Int64
	compute := func(sys *system.System) (*knowledge.Bits, error) {
		computes.Add(1)
		e := knowledge.NewEvaluator(sys)
		f, err := knowledge.Parse("C E0 -> Cbox E0")
		if err != nil {
			return nil, err
		}
		return e.Eval(f), nil
	}
	const goroutines = 12
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, _, err := s.Result(key, "C E0 -> Cbox E0", compute)
			if err != nil {
				t.Error(err)
				return
			}
			if ans.First < 0 {
				t.Error("C E0 -> Cbox E0 must not be valid (Section 3.3's converse)")
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d concurrent result gets ran %d computes, want exactly 1", goroutines, got)
	}
}

func TestKeyValidate(t *testing.T) {
	bad := []Key{
		{N: 1, T: 0, Mode: failures.Crash, Horizon: 2},
		{N: 3, T: 1, Mode: 0, Horizon: 2},
		{N: 3, T: 1, Mode: failures.Crash, Horizon: 0},
		{N: 3, T: 1, Mode: failures.Crash, Horizon: 2, Limit: -1},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid key", k)
		}
		if _, _, err := (&Store{}).System(k); err == nil {
			t.Errorf("System(%+v) accepted an invalid key", k)
		}
	}
}

// TestLazyRestoreReadsNothingAndReencodes: restoring a snapshot this
// store wrote itself reads none of the file, and the entry holds
// neither its bytes nor a system. The first use reads and decodes the
// file once, into a system that re-encodes to the file's digest.
func TestLazyRestoreReadsNothingAndReencodes(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	fsys := &countFS{FS: OSFS{}}
	s, err := OpenWithFS(dir, 1, fsys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{key, {N: 3, T: 1, Mode: failures.Crash, Horizon: 3}} {
		if _, origin, err := s.System(k); err != nil || origin != OriginEnumerated {
			t.Fatalf("%s: origin %v, %v", k, origin, err)
		}
	}
	reads := fsys.snapshotReads()
	shape, origin, err := s.Resident(context.Background(), key)
	if err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	if d := s.Stats().SystemDecodes; d != 0 {
		t.Fatalf("restoring a snapshot the store wrote decoded it %d times, want 0", d)
	}
	if r := fsys.snapshotReads() - reads; r != 0 {
		t.Fatalf("restoring a snapshot the store wrote read it %d times, want 0", r)
	}
	s.mu.Lock()
	e := s.entries[key]
	s.mu.Unlock()
	if e.sys != nil {
		t.Fatal("the restored entry holds a decoded system")
	}
	sys, origin, err := s.System(key)
	if err != nil || origin != OriginMemory {
		t.Fatalf("first use: origin %v, %v", origin, err)
	}
	if d := s.Stats().SystemDecodes; d != 1 {
		t.Fatalf("first use decoded %d times, want 1", d)
	}
	if r := fsys.snapshotReads() - reads; r != 1 {
		t.Fatalf("first use read the snapshot %d times, want 1", r)
	}
	if shape != shapeOf(sys) {
		t.Fatalf("restored shape %+v, decoded system's %+v", shape, shapeOf(sys))
	}
	data, err := os.ReadFile(s.systemPath(key))
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSystem(key, sys)
	if err != nil {
		t.Fatal(err)
	}
	if Digest(again) != Digest(data) {
		t.Fatalf("the lazily decoded system encodes to %s, want the file's %s", Digest(again), Digest(data))
	}
	if _, _, err := s.System(key); err != nil || s.Stats().SystemDecodes != 1 {
		t.Fatalf("second use: %v, %d decodes, want still 1", err, s.Stats().SystemDecodes)
	}
}

// TestLazyEntryDecodesOnceUnderConcurrentComputes: eight goroutines
// compute eight formulas over one entry restored undecoded, while
// another lists the inventory. The entry is decoded once, and every
// answer is the one a freshly enumerated system gives.
func TestLazyEntryDecodesOnceUnderConcurrentComputes(t *testing.T) {
	formulas := []string{
		"C E0 -> Cbox E0", "Cbox E0 -> C E0", "K0 E0", "E E0 -> Cbox E0",
		"Cdia E0", "B1 E1", "C E1 -> Cbox E1", "ev K1 E1",
	}
	compute := func(f string) func(*system.System) (*knowledge.Bits, error) {
		return func(sys *system.System) (*knowledge.Bits, error) {
			parsed, err := knowledge.Parse(f)
			if err != nil {
				return nil, err
			}
			return knowledge.NewEvaluator(sys).Eval(parsed), nil
		}
	}
	dir := t.TempDir()
	key := Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 500}
	s := mustOpen(t, dir, 1)
	ref, _, err := s.System(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Answer, len(formulas))
	for i, f := range formulas {
		tbl, err := compute(f)(ref)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = newAnswer(ref, tbl)
	}
	if _, _, err := s.System(testKey()); err != nil { // evicts key
		t.Fatal(err)
	}
	if _, origin, err := s.Resident(context.Background(), key); err != nil || origin != OriginDisk {
		t.Fatalf("restore: origin %v, %v", origin, err)
	}
	decodes := s.Stats().SystemDecodes

	stop := make(chan struct{})
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		for {
			select {
			case <-stop:
				return
			default:
				for _, row := range s.Inventory() {
					if row.Key == key && row.Points != ref.NumPoints() {
						t.Errorf("inventory lists %d points, want %d", row.Points, ref.NumPoints())
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i, f := range formulas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, origin, err := s.AnswerCtx(context.Background(), key, f, compute(f))
			if err != nil || origin != OriginEnumerated {
				t.Errorf("%s: origin %v, %v", f, origin, err)
				return
			}
			if got.True != want[i].True || got.First != want[i].First || !reflect.DeepEqual(got.Witness, want[i].Witness) {
				t.Errorf("%s: %d true, first %d, witness %+v; want %d, %d, %+v",
					f, got.True, got.First, got.Witness, want[i].True, want[i].First, want[i].Witness)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-listed
	if d := s.Stats().SystemDecodes - decodes; d != 1 {
		t.Fatalf("%d concurrent computes on a lazy entry decoded it %d times, want 1", len(formulas), d)
	}
}

// TestConcurrentRestoresOfTwoKeys restores two keys from two goroutines
// through a one-system store, so every request evicts the other key
// and most restores overlap, each admitting the snapshot undecoded and
// decoding it on first use. Every restored system must be its own
// file's.
func TestConcurrentRestoresOfTwoKeys(t *testing.T) {
	dir := t.TempDir()
	keys := []Key{testKey(), {N: 3, T: 1, Mode: failures.Omission, Horizon: 2, Limit: 500}}
	digests := make([]string, len(keys))
	warm := mustOpen(t, dir, len(keys))
	for i, key := range keys {
		sys, _, err := warm.System(key)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeSystem(key, sys)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = Digest(data)
	}
	s := mustOpen(t, dir, 1)
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				sys, _, err := s.System(key)
				if err != nil {
					t.Error(err)
					return
				}
				data, err := EncodeSystem(key, sys)
				if err != nil || Digest(data) != digests[i] {
					t.Errorf("%s restored to digest %s (%v), want %s", key, Digest(data), err, digests[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.SystemDiskHits == 0 || st.Enumerations != 0 {
		t.Fatalf("stats %+v: want restores and no enumerations", st)
	}
}

func mustOpen(t *testing.T, dir string, maxMem int) *Store {
	t.Helper()
	s, err := Open(dir, maxMem)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
