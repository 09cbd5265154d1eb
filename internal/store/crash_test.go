// Crash-safety coverage driven by the fault injectors of
// faultinject_test.go. External test package, like the injectors: they
// wrap store.FS and the enumerator from outside, as a caller would.
package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

func crashKey() store.Key {
	return store.Key{N: 3, T: 1, Mode: failures.Crash, Horizon: 3}
}

// TestTornWriteQuarantineAndRecovery is the satellite crash-safety
// scenario end to end: a torn snapshot write (the injector "kills" the
// process mid-write), restart, boot-scan quarantine of the partial
// file plus a leftover temp file, recomputation, and a recovered
// snapshot byte-identical to a never-crashed baseline.
func TestTornWriteQuarantineAndRecovery(t *testing.T) {
	key := crashKey()

	// Baseline: a store that never crashes.
	dirA := t.TempDir()
	stA, err := store.Open(dirA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := stA.System(key); err != nil {
		t.Fatal(err)
	}
	snaps := stA.DiskSnapshots()
	if len(snaps) != 1 {
		t.Fatalf("baseline snapshots %v, want one", snaps)
	}
	snapName := snaps[0]
	want, err := os.ReadFile(filepath.Join(dirA, "systems", snapName))
	if err != nil {
		t.Fatal(err)
	}

	// Crash mid-write: every WriteAtomic tears.
	dirB := t.TempDir()
	inj := newInjector(faultConfig{Seed: 7, TornWriteProb: 1})
	stB, err := store.OpenWithFS(dirB, 4, inj.FS(store.OSFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := stB.System(key); err != nil {
		t.Fatalf("a failed persist must not fail the query: %v", err)
	}
	if got := inj.Counts().TornWrites; got < 1 {
		t.Fatalf("torn writes %d, want >= 1", got)
	}
	if stB.Stats().DiskErrors == 0 {
		t.Fatal("torn write not surfaced as a disk error")
	}
	snapB := filepath.Join(dirB, "systems", snapName)
	torn, err := os.ReadFile(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) >= len(want) || !bytes.Equal(torn, want[:len(torn)]) {
		t.Fatalf("torn file (%d bytes) is not a strict prefix of the clean snapshot (%d bytes)", len(torn), len(want))
	}
	// An interrupted writer can also leave a temp file behind.
	tmp := filepath.Join(dirB, "systems", ".tmp-leftover")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: the boot scan must quarantine both artifacts — never
	// serve them, never delete them.
	stC, err := store.Open(dirB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := stC.Stats().Quarantined; got != 2 {
		t.Fatalf("quarantined %d files, want 2 (torn snapshot + temp file)", got)
	}
	q := stC.QuarantinedFiles()
	if len(q) != 2 {
		t.Fatalf("quarantine dir: %v, want 2 files", q)
	}
	if _, err := os.Stat(snapB); !os.IsNotExist(err) {
		t.Fatal("torn snapshot still at its serving path after the scan")
	}
	if _, err := os.Stat(filepath.Join(dirB, "quarantine", snapName)); err != nil {
		t.Fatalf("torn snapshot not preserved in quarantine: %v", err)
	}

	// The next query recomputes and persists a healthy snapshot,
	// byte-identical to the never-crashed baseline.
	_, origin, err := stC.System(key)
	if err != nil {
		t.Fatal(err)
	}
	if origin != store.OriginEnumerated {
		t.Fatalf("origin %v, want enumerated (quarantined snapshot must not be served)", origin)
	}
	got, err := os.ReadFile(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered snapshot differs from the clean baseline")
	}
}

// TestTransientWriteErrorDegradesToMemory: a transient persist failure
// leaves the system served from memory and the next miss heals the
// snapshot.
func TestTransientWriteErrorDegradesToMemory(t *testing.T) {
	key := crashKey()
	dir := t.TempDir()
	inj := newInjector(faultConfig{Seed: 3, TransientWrites: 1})
	st, err := store.OpenWithFS(dir, 4, inj.FS(store.OSFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.System(key); err != nil {
		t.Fatalf("query failed on a persist-only fault: %v", err)
	}
	if st.Stats().DiskErrors != 1 {
		t.Fatalf("disk errors %d, want 1", st.Stats().DiskErrors)
	}
	if len(st.DiskSnapshots()) != 0 {
		t.Fatal("failed write left a snapshot behind")
	}
	// Served from memory despite the missing snapshot.
	if _, origin, err := st.System(key); err != nil || origin != store.OriginMemory {
		t.Fatalf("origin %v err %v, want memory hit", origin, err)
	}
}

// TestSingleflightLeaderFailure is the satellite singleflight fix:
// when the leader's load fails, followers sharing the flight get a
// typed retryable error — not the leader's stale failure as their own
// — and the next attempt starts fresh and succeeds.
func TestSingleflightLeaderFailure(t *testing.T) {
	key := crashKey()
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	inj := newInjector(faultConfig{Seed: 11, TransientComputes: 1})
	faulty := inj.Enumerator(func(k store.Key) (*system.System, error) {
		return system.Enumerate(types.Params{N: k.N, T: k.T}, k.Mode, k.Horizon, k.Limit)
	})
	entered := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int32
	st.SetEnumerator(func(k store.Key) (*system.System, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return faulty(k)
	})

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := st.System(key)
		leaderErr <- err
	}()
	<-entered

	// Join the leader's flight, then observe the shared wait before
	// releasing the gate.
	followerErr := make(chan error, 1)
	go func() {
		_, origin, err := st.System(key)
		if err != nil && origin != store.OriginShared {
			err = errors.Join(err, errors.New("follower origin is not shared"))
		}
		followerErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().SharedLoads < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)

	lerr := <-leaderErr
	if !errors.Is(lerr, errInjected) {
		t.Fatalf("leader error %v, want the injected fault", lerr)
	}
	if errors.Is(lerr, store.ErrRetryable) {
		t.Fatal("leader error marked retryable; only followers who never ran the load should be")
	}
	ferr := <-followerErr
	if !errors.Is(ferr, store.ErrRetryable) {
		t.Fatalf("follower error %v, want store.ErrRetryable", ferr)
	}

	// The transient fault is spent: a retry gets a fresh, successful
	// attempt instead of a poisoned cache entry.
	if _, origin, err := st.System(key); err != nil || origin != store.OriginEnumerated {
		t.Fatalf("retry after leader failure: origin %v err %v, want fresh enumeration", origin, err)
	}
	if got := inj.Counts().TransientErrors; got != 1 {
		t.Fatalf("transient faults %d, want exactly 1", got)
	}
}
