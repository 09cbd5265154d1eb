// Seeded, deterministic fault injectors for the store's two seams:
// store.FS for disk traffic (injector.FS) and the cold-path enumerator
// (injector.Enumerator). They are the serving-side counterpart of
// internal/chaos, which injects link faults into the protocol runtime:
// slow I/O, torn snapshot writes, transient store errors and stuck
// cold computes. Decisions come from a seeded PRNG plus deterministic
// first-N counters, so a failing test replays from its seed alone.
package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
)

// errInjected is the sentinel every injected fault wraps; tests and
// callers distinguish real failures from injected ones with errors.Is.
var errInjected = errors.New("faultinject: injected fault")

// faultConfig selects which faults an injector produces.
// Probabilities are evaluated per operation from the seeded PRNG; the
// Transient* fields are deterministic first-N counters (the first N
// matching operations fail, later ones succeed), which is the natural
// shape for leader-failure and retry tests.
type faultConfig struct {
	Seed int64

	// SlowProb delays each FS read/write by SlowDelay with this
	// probability (slow-disk simulation).
	SlowProb  float64
	SlowDelay time.Duration

	// TornWriteProb makes WriteAtomic "crash" mid-write with this
	// probability: a strict prefix of the data lands at the final
	// path (as if a rename committed before its data blocks) and the
	// call fails with an errInjected-wrapped error.
	TornWriteProb float64

	// TransientReads / TransientWrites fail the first N FS reads /
	// atomic writes with a retryable, errInjected-wrapped error.
	TransientReads  int
	TransientWrites int

	// TransientComputes fails the first N wrapped enumerator calls.
	TransientComputes int

	// StuckProb stalls an enumerator call for StuckDelay with this
	// probability before letting it proceed (stuck-compute simulation).
	StuckProb  float64
	StuckDelay time.Duration
}

// faultCounts reports how many faults an injector actually produced, so
// tests can assert the scenario they meant to run really happened.
type faultCounts struct {
	SlowOps         int
	TornWrites      int
	TransientErrors int
	StuckComputes   int
}

// injector is a seeded fault source. Safe for concurrent use; under
// concurrency the decision sequence is serialized by an internal lock,
// so a single-goroutine op sequence is exactly reproducible from the
// seed and a concurrent one is reproducible as a multiset.
type injector struct {
	cfg faultConfig

	mu           sync.Mutex
	rng          *rand.Rand
	readsLeft    int
	writesLeft   int
	computesLeft int
	counts       faultCounts
}

// New builds an injector from a config. A zero config injects nothing.
func newInjector(cfg faultConfig) *injector {
	return &injector{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		readsLeft:    cfg.TransientReads,
		writesLeft:   cfg.TransientWrites,
		computesLeft: cfg.TransientComputes,
	}
}

// Counts returns a snapshot of the faults injected so far.
func (in *injector) Counts() faultCounts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// roll draws one probability decision from the seeded stream.
func (in *injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		// Still consume a draw so the decision stream's shape does not
		// depend on the configured probability.
		in.rng.Float64()
		return true
	}
	return in.rng.Float64() < p
}

// maybeSlow sleeps outside the lock when the slow-I/O roll hits.
func (in *injector) maybeSlow() {
	in.mu.Lock()
	hit := in.roll(in.cfg.SlowProb)
	if hit {
		in.counts.SlowOps++
	}
	in.mu.Unlock()
	if hit {
		time.Sleep(in.cfg.SlowDelay)
	}
}

func (in *injector) takeTransient(left *int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if *left <= 0 {
		return false
	}
	*left--
	in.counts.TransientErrors++
	return true
}

// FS wraps a store filesystem with the injector's I/O faults.
func (in *injector) FS(inner store.FS) store.FS { return &faultFS{in: in, inner: inner} }

type faultFS struct {
	in    *injector
	inner store.FS
}

func (f *faultFS) ReadFile(path string) ([]byte, error) {
	f.in.maybeSlow()
	if f.in.takeTransient(&f.in.readsLeft) {
		return nil, fmt.Errorf("%w: transient read error on %s", errInjected, path)
	}
	return f.inner.ReadFile(path)
}

func (f *faultFS) WriteAtomic(path string, data []byte) error {
	f.in.maybeSlow()
	if f.in.takeTransient(&f.in.writesLeft) {
		return fmt.Errorf("%w: transient write error on %s", errInjected, path)
	}
	f.in.mu.Lock()
	torn := f.in.roll(f.in.cfg.TornWriteProb)
	var cut int
	if torn {
		f.in.counts.TornWrites++
		if len(data) > 1 {
			cut = 1 + f.in.rng.Intn(len(data)-1)
		}
	}
	f.in.mu.Unlock()
	if torn {
		// Simulate the crash WriteAtomic's fsync discipline exists to
		// prevent: the file at the final path holds a strict prefix of
		// the data. Written directly, bypassing the inner FS's
		// atomicity, because a torn file IS the non-atomic outcome.
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			return fmt.Errorf("%w: torn write of %s also failed: %v", errInjected, path, err)
		}
		return fmt.Errorf("%w: simulated crash after %d/%d bytes of %s", errInjected, cut, len(data), path)
	}
	return f.inner.WriteAtomic(path, data)
}

func (f *faultFS) ReadDir(dir string) ([]os.DirEntry, error)   { return f.inner.ReadDir(dir) }
func (f *faultFS) Rename(oldpath, newpath string) error        { return f.inner.Rename(oldpath, newpath) }
func (f *faultFS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }
func (f *faultFS) Stat(path string) (os.FileInfo, error)       { return f.inner.Stat(path) }

// Enumerator wraps a store cold-path builder with stuck-compute and
// transient-failure faults; wire it in with store.SetEnumerator.
func (in *injector) Enumerator(inner func(store.Key) (*system.System, error)) func(store.Key) (*system.System, error) {
	return func(k store.Key) (*system.System, error) {
		in.mu.Lock()
		stuck := in.roll(in.cfg.StuckProb)
		if stuck {
			in.counts.StuckComputes++
		}
		in.mu.Unlock()
		if stuck {
			time.Sleep(in.cfg.StuckDelay)
		}
		if in.takeTransient(&in.computesLeft) {
			return nil, fmt.Errorf("%w: transient compute failure for %s", errInjected, k)
		}
		return inner(k)
	}
}

// driveSequence runs a fixed single-goroutine op sequence against an
// injector-wrapped FS and returns which ops faulted.
func driveSequence(t *testing.T, in *injector, dir string) []bool {
	t.Helper()
	fs := in.FS(store.OSFS{})
	var faults []bool
	data := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < 50; i++ {
		path := filepath.Join(dir, "f.bin")
		werr := fs.WriteAtomic(path, data)
		faults = append(faults, werr != nil)
		_, rerr := fs.ReadFile(path)
		faults = append(faults, rerr != nil)
	}
	return faults
}

// TestDeterministicDecisions: two injectors with the same seed and
// config produce the same fault sequence over the same op sequence.
func TestDeterministicDecisions(t *testing.T) {
	cfg := faultConfig{Seed: 42, TornWriteProb: 0.3, TransientReads: 3}
	a := driveSequence(t, newInjector(cfg), t.TempDir())
	b := driveSequence(t, newInjector(cfg), t.TempDir())
	if len(a) != len(b) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between same-seed injectors", i)
		}
	}
	// A different seed must (for this config) give a different stream.
	c := driveSequence(t, newInjector(faultConfig{Seed: 7, TornWriteProb: 0.3, TransientReads: 3}), t.TempDir())
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestTornWriteLeavesStrictPrefix(t *testing.T) {
	dir := t.TempDir()
	in := newInjector(faultConfig{Seed: 1, TornWriteProb: 1})
	fs := in.FS(store.OSFS{})
	data := []byte("a perfectly healthy snapshot payload with a checksum at the end")
	path := filepath.Join(dir, "snap.eba")
	err := fs.WriteAtomic(path, data)
	if !errors.Is(err, errInjected) {
		t.Fatalf("torn write error = %v, want errInjected", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("torn file missing: %v", rerr)
	}
	if len(got) == 0 || len(got) >= len(data) {
		t.Fatalf("torn file has %d bytes of %d, want a strict nonempty prefix", len(got), len(data))
	}
	if string(got) != string(data[:len(got)]) {
		t.Fatal("torn file is not a prefix of the data")
	}
	if c := in.Counts(); c.TornWrites != 1 {
		t.Fatalf("counts = %+v, want 1 torn write", c)
	}
}

func TestTransientErrorsExpire(t *testing.T) {
	dir := t.TempDir()
	in := newInjector(faultConfig{Seed: 1, TransientReads: 2, TransientWrites: 1})
	fs := in.FS(store.OSFS{})
	path := filepath.Join(dir, "f.bin")

	if err := fs.WriteAtomic(path, []byte("xx")); !errors.Is(err, errInjected) {
		t.Fatalf("first write: %v, want injected transient", err)
	}
	if err := fs.WriteAtomic(path, []byte("xx")); err != nil {
		t.Fatalf("second write should succeed: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fs.ReadFile(path); !errors.Is(err, errInjected) {
			t.Fatalf("read %d: %v, want injected transient", i, err)
		}
	}
	if got, err := fs.ReadFile(path); err != nil || string(got) != "xx" {
		t.Fatalf("third read should succeed: %q, %v", got, err)
	}
	if c := in.Counts(); c.TransientErrors != 3 {
		t.Fatalf("counts = %+v, want 3 transient errors", c)
	}
}

// TestTransientSnapshotReadFallsBack: the store reads snapshots through
// its FS, so an injected read error reaches the
// restore path, which falls back to enumerating.
func TestTransientSnapshotReadFallsBack(t *testing.T) {
	dir := t.TempDir()
	key := store.Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 2}
	warm, err := store.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.System(key); err != nil {
		t.Fatal(err)
	}
	in := newInjector(faultConfig{Seed: 1})
	st, err := store.OpenWithFS(dir, 1, in.FS(store.OSFS{}))
	if err != nil {
		t.Fatal(err)
	}
	in.mu.Lock()
	in.readsLeft = 1 // the boot-time scan has read the file; fail the restore's read
	in.mu.Unlock()
	if _, origin, err := st.System(key); err != nil || origin != store.OriginEnumerated {
		t.Fatalf("restore under a read fault: origin %v, %v; want a fresh enumeration", origin, err)
	}
	if c := in.Counts(); c.TransientErrors != 1 {
		t.Fatalf("counts = %+v, want the restore's read to fail", c)
	}
	if _, origin, err := st.System(store.Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 3}); err != nil || origin != store.OriginEnumerated {
		t.Fatalf("another key: origin %v, %v", origin, err)
	}
	if _, origin, err := st.System(key); err != nil || origin != store.OriginDisk {
		t.Fatalf("restore once the fault has passed: origin %v, %v; want disk", origin, err)
	}
}

func TestSlowIODelays(t *testing.T) {
	dir := t.TempDir()
	in := newInjector(faultConfig{Seed: 1, SlowProb: 1, SlowDelay: 30 * time.Millisecond})
	fs := in.FS(store.OSFS{})
	start := time.Now()
	if err := fs.WriteAtomic(filepath.Join(dir, "f"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("slow write took %v, want >= 30ms", d)
	}
	if c := in.Counts(); c.SlowOps != 1 {
		t.Fatalf("counts = %+v, want 1 slow op", c)
	}
}

func TestEnumeratorFaults(t *testing.T) {
	in := newInjector(faultConfig{Seed: 1, TransientComputes: 1, StuckProb: 1, StuckDelay: 20 * time.Millisecond})
	calls := 0
	enum := in.Enumerator(func(k store.Key) (*system.System, error) {
		calls++
		return nil, nil
	})
	key := store.Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 2}

	start := time.Now()
	if _, err := enum(key); !errors.Is(err, errInjected) {
		t.Fatalf("first compute: %v, want injected transient", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("stuck compute took %v, want >= 20ms", d)
	}
	if calls != 0 {
		t.Fatal("inner enumerator ran despite the transient fault")
	}
	if _, err := enum(key); err != nil {
		t.Fatalf("second compute should pass through: %v", err)
	}
	if calls != 1 {
		t.Fatalf("inner enumerator ran %d times, want 1", calls)
	}
	c := in.Counts()
	if c.TransientErrors != 1 || c.StuckComputes != 2 {
		t.Fatalf("counts = %+v, want 1 transient + 2 stuck", c)
	}
}
