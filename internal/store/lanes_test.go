package store

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/views"
)

// runSection returns the offset in data of the run table's first run
// (just past the run count).
func runSection(data []byte) int {
	d := decoder{buf: data[len(snapMagic) : len(data)-digestLen]}
	d.uvarint() // version
	var key Key
	key.N = int(d.uvarint())
	key.T = int(d.uvarint())
	key.Mode = failures.Mode(d.uvarint())
	key.Horizon = int(d.uvarint())
	key.Limit = int(d.uvarint())
	d.bytes(int(d.uvarint()))
	pats, err := failures.Enum(key.Mode, key.N, key.T, key.Horizon, key.Limit)
	if err != nil {
		panic(err)
	}
	d.bytes(len(appendPatterns(nil, key, pats)))
	d.uvarint() // run count
	if d.err != nil {
		panic(d.err)
	}
	return len(snapMagic) + d.pos
}

// encodeRuns is the run section EncodeSystem writes for tbl, whose
// pattern indices are already the snapshot's.
func encodeRuns(tbl system.RunTable) []byte {
	stride := len(tbl.Views) / len(tbl.PatternOf)
	var buf []byte
	for r, pi := range tbl.PatternOf {
		buf = binary.AppendUvarint(buf, tbl.ConfigOf[r])
		buf = binary.AppendUvarint(buf, uint64(pi))
		for _, id := range tbl.Views[r*stride : (r+1)*stride] {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	return buf
}

// laneSnapshot is a small snapshot with its decoded run table.
func laneSnapshot(t *testing.T, key Key) ([]byte, system.RunTable) {
	t.Helper()
	data, err := EncodeSystem(key, enumerateTestSystem(t, key))
	if err != nil {
		t.Fatal(err)
	}
	_, sys, err := decodeSystem(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeRuns(sys.Table()); string(got) != string(data[runSection(data):len(data)-digestLen]) {
		t.Fatal("the re-encoded run section differs from the snapshot's")
	}
	return data, sys.Table()
}

// withRuns re-encodes data's run section from tbl, edited by edit, and
// reseals the checksum.
func withRuns(data []byte, tbl system.RunTable, edit func(tbl *system.RunTable)) []byte {
	tbl = system.RunTable{
		PatternOf: slices.Clone(tbl.PatternOf),
		ConfigOf:  slices.Clone(tbl.ConfigOf),
		Views:     slices.Clone(tbl.Views),
	}
	edit(&tbl)
	out := append(slices.Clone(data[:runSection(data)]), encodeRuns(tbl)...)
	return reseal(append(out, make([]byte, digestLen)...))
}

// TestLaneSplitsAgree decodes small snapshots with the second lane
// starting at every run boundary, and with one lane: every split gives
// the same run table, and the system re-encodes to the same bytes.
func TestLaneSplitsAgree(t *testing.T) {
	for _, key := range []Key{
		testKey(),
		{N: 2, T: 1, Mode: failures.GeneralOmission, Horizon: 2, Limit: 200},
	} {
		data, want := laneSnapshot(t, key)
		nruns := len(want.PatternOf)
		for split := 0; split <= nruns; split++ {
			_, sys, err := decodeSystem(data, split)
			if err != nil {
				t.Fatalf("%s split at run %d: %v", key, split, err)
			}
			got := sys.Table()
			if !slices.Equal(got.PatternOf, want.PatternOf) || !slices.Equal(got.ConfigOf, want.ConfigOf) || !slices.Equal(got.Views, want.Views) {
				t.Fatalf("%s split at run %d: the run table differs from one lane's", key, split)
			}
			again, err := EncodeSystem(key, sys)
			if err != nil || Digest(again) != Digest(data) {
				t.Fatalf("%s split at run %d: re-encoded digest %s (%v), want %s", key, split, Digest(again), err, Digest(data))
			}
		}
	}
}

// TestLaneErrorsMatch corrupts one run in the middle of a checksum-valid
// snapshot (resealed) and decodes it with the second lane starting at
// every run boundary. Whichever lane the run falls in, and whether a
// lane boundary cuts the corruption, the error is the one a single
// lane reports. A run's head must be the builder's layout, so an edited
// pattern index or configuration is a head error; the per-slot cases
// are the per-slot rules of system.TestReassembleRejects, which the
// decode enforces through the same check. Run 5 of the crash n=3 h=2
// system is pattern 0 under configuration 5, and slot k of a run is
// processor k%3 at time k/3.
func TestLaneErrorsMatch(t *testing.T) {
	data, tbl := laneSnapshot(t, testKey())
	nruns, stride := len(tbl.PatternOf), len(tbl.Views)/len(tbl.PatternOf)
	const run = 5
	_, sys, err := DecodeSystem(data)
	if err != nil {
		t.Fatal(err)
	}
	npats, nviews := len(sys.Table().Patterns), sys.Interner.Size()
	edit := func(f func(v []views.ID, tbl *system.RunTable)) []byte {
		return withRuns(data, tbl, func(tbl *system.RunTable) { f(tbl.Views[run*stride:(run+1)*stride], tbl) })
	}
	for _, tc := range []struct {
		name string
		bad  []byte
		want string
	}{
		{"bad pattern index", edit(func(_ []views.ID, tbl *system.RunTable) { tbl.PatternOf[run] = int32(npats) }),
			fmt.Sprintf("run 5 is headed (config 0x5, pattern %d), where the enumeration has (config 0x5, pattern 0)", npats)},
		{"another configuration", edit(func(_ []views.ID, tbl *system.RunTable) { tbl.ConfigOf[run] ^= 1 << 2 }),
			"run 5 is headed (config 0x1, pattern 0)"},
		{"configuration bits past 2^n", edit(func(_ []views.ID, tbl *system.RunTable) { tbl.ConfigOf[run] |= 1 << 3 }),
			"run 5 is headed (config 0xd, pattern 0)"},
		{"view past the interner", edit(func(v []views.ID, _ *system.RunTable) { v[5] = views.ID(nviews) }),
			fmt.Sprintf("run 5 time 1: view %d not in interner", nviews)},
		{"slot owned by the wrong processor", edit(func(v []views.ID, _ *system.RunTable) { v[3], v[4] = v[4], v[3] }),
			"want (p0,t1)"},
		{"slot of the wrong time", edit(func(v []views.ID, _ *system.RunTable) { v[7] = v[4] }),
			"want (p1,t2)"},
		// Run 1 starts processor 2 with 0, where run 5 starts it with 1.
		{"time-0 view contradicts the configuration", edit(func(v []views.ID, tbl *system.RunTable) { v[2] = tbl.Views[stride+2] }),
			"run 5: processor 2 starts with 0 in its view, 1 in the run's configuration"},
		{"varint straddling the split", func() []byte {
			// The last view of run-1 loses its terminator, so it runs
			// on into run's configuration bits: every later varint
			// shifts by one, and the lane boundary moves with them.
			bad := withRuns(data, tbl, func(*system.RunTable) {})
			end := runSection(bad) + len(encodeRuns(system.RunTable{
				PatternOf: tbl.PatternOf[:run], ConfigOf: tbl.ConfigOf[:run], Views: tbl.Views[:run*stride],
			}))
			bad[end-1] |= 0x80
			return reseal(bad)
		}(), "run 4 time 2"},
		{"trailing bytes", reseal(append(append(slices.Clone(data[:len(data)-digestLen]), 0), make([]byte, digestLen)...)),
			"1 trailing bytes"},
	} {
		_, _, one := decodeSystem(tc.bad, 0)
		if one == nil || !strings.Contains(one.Error(), tc.want) {
			t.Fatalf("%s: one lane reports %v, want an error naming %q", tc.name, one, tc.want)
		}
		for split := 1; split <= nruns; split++ {
			_, sys, err := decodeSystem(tc.bad, split)
			if err == nil || err.Error() != one.Error() || sys != nil {
				t.Errorf("%s, second lane from run %d: %v, want %q", tc.name, split, err, one)
			}
		}
	}
}

// TestSpreadDecode decodes a snapshot above spreadMin, whose checksum,
// interner and second lane run on goroutines of their own: every split
// gives the one-lane run table, a run headed with a foreign pattern
// index in either lane the one-lane error, and a flipped byte the
// checksum mismatch, however far the decode got with it.
func TestSpreadDecode(t *testing.T) {
	key := Key{N: 3, T: 1, Mode: failures.GeneralOmission, Horizon: 2, Limit: 2_000_000}
	data, want := laneSnapshot(t, key)
	if len(data) < spreadMin {
		t.Fatalf("%s is %d bytes, under spreadMin", key, len(data))
	}
	nruns := len(want.PatternOf)
	splits := []int{-1, 1, nruns / 3, nruns - 1}
	for _, split := range splits {
		_, sys, err := decodeSystem(data, split)
		if err != nil {
			t.Fatalf("split at run %d: %v", split, err)
		}
		got := sys.Table()
		if !slices.Equal(got.PatternOf, want.PatternOf) || !slices.Equal(got.ConfigOf, want.ConfigOf) || !slices.Equal(got.Views, want.Views) {
			t.Fatalf("split at run %d: the run table differs from one lane's", split)
		}
	}
	for _, run := range []int{1, nruns - 2} {
		bad := withRuns(data, want, func(tbl *system.RunTable) { tbl.PatternOf[run] = 1 << 20 })
		_, _, one := decodeSystem(bad, 0)
		if one == nil || !strings.Contains(one.Error(), fmt.Sprintf("run %d is headed (config %#x, pattern 1048576)", run, run%8)) {
			t.Fatalf("run %d: one lane reports %v", run, one)
		}
		for _, split := range splits {
			if _, _, err := decodeSystem(bad, split); err == nil || err.Error() != one.Error() {
				t.Errorf("run %d, second lane from run %d: %v, want %q", run, split, err, one)
			}
		}
	}
	for _, flip := range []int{len(snapMagic), runSection(data) + 1, len(data) - digestLen - 1} {
		bad := slices.Clone(data)
		bad[flip] ^= 0x40
		if _, _, err := DecodeSystem(bad); err == nil || err.Error() != errChecksum.Error() {
			t.Errorf("byte %d flipped: %v, want %q", flip, err, errChecksum)
		}
	}
}
