package store

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// encodeDigest encodes the system under the key and returns the
// snapshot's content digest.
func encodeDigest(t *testing.T, key Key, sys *system.System) string {
	t.Helper()
	data, err := EncodeSystem(key, sys)
	if err != nil {
		t.Fatalf("EncodeSystem: %v", err)
	}
	return Digest(data)
}

// TestParallelBuildDigestIdentical is the determinism pin for the
// parallel cold path: across modes and worker counts, the parallel
// builder must produce a snapshot whose sha256 content digest is
// byte-identical to the sequential builder's — same run order, same
// view IDs, same encoding.
func TestParallelBuildDigestIdentical(t *testing.T) {
	keys := []Key{
		{N: 3, T: 1, Mode: failures.Crash, Horizon: 3},
		{N: 3, T: 1, Mode: failures.Omission, Horizon: 2},
		{N: 4, T: 1, Mode: failures.Crash, Horizon: 2},
	}
	for _, key := range keys {
		t.Run(key.Slug(), func(t *testing.T) {
			seq, err := system.Enumerate(types.Params{N: key.N, T: key.T}, key.Mode, key.Horizon, key.Limit)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeDigest(t, key, seq)
			for _, workers := range []int{2, 3, 4, 7} {
				par, err := system.EnumerateParallel(types.Params{N: key.N, T: key.T}, key.Mode, key.Horizon, key.Limit, workers)
				if err != nil {
					t.Fatal(err)
				}
				if par.NumRuns() != seq.NumRuns() {
					t.Fatalf("workers=%d: %d runs, want %d", workers, par.NumRuns(), seq.NumRuns())
				}
				if par.Interner.Size() != seq.Interner.Size() {
					t.Fatalf("workers=%d: %d views, want %d", workers, par.Interner.Size(), seq.Interner.Size())
				}
				if got := encodeDigest(t, key, par); got != want {
					t.Fatalf("workers=%d: digest %s, want %s", workers, got, want)
				}
			}
		})
	}
}

// TestParallelStoreWarmReassembly checks the full store round trip of
// a parallel-built snapshot: a cold fill through a store whose
// enumerator is the sharded builder persists a snapshot that a fresh
// store warm-loads from disk into the same system the sequential
// builder produces.
func TestParallelStoreWarmReassembly(t *testing.T) {
	dir := t.TempDir()
	key := Key{N: 3, T: 1, Mode: failures.Omission, Horizon: 2}

	cold, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetEnumerator(func(k Key) (*system.System, error) {
		return system.EnumerateParallel(types.Params{N: k.N, T: k.T}, k.Mode, k.Horizon, k.Limit, 4)
	})
	csys, origin, err := cold.System(key)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginEnumerated {
		t.Fatalf("cold origin %v", origin)
	}

	warm, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	wsys, origin, err := warm.System(key)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDisk {
		t.Fatalf("warm origin %v, want disk", origin)
	}

	seq := enumerateTestSystem(t, key)
	want := encodeDigest(t, key, seq)
	if got := encodeDigest(t, key, csys); got != want {
		t.Fatalf("parallel cold fill digest %s, want sequential %s", got, want)
	}
	if got := encodeDigest(t, key, wsys); got != want {
		t.Fatalf("warm reassembly digest %s, want sequential %s", got, want)
	}
	if wsys.NumPoints() != seq.NumPoints() || wsys.Interner.Size() != seq.Interner.Size() {
		t.Fatalf("warm system %d points / %d views, want %d / %d",
			wsys.NumPoints(), wsys.Interner.Size(), seq.NumPoints(), seq.Interner.Size())
	}
}
