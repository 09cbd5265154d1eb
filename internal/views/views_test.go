package views

import (
	"bytes"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

func mustConfig(t *testing.T, s string) types.Config {
	t.Helper()
	vals := make([]types.Value, len(s))
	for i, c := range s {
		switch c {
		case '0':
			vals[i] = types.Zero
		case '1':
			vals[i] = types.One
		default:
			t.Fatalf("bad config char %q", c)
		}
	}
	cfg, err := types.NewConfig(vals...)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestInterningDedup(t *testing.T) {
	in := NewInterner(3)
	a := in.Leaf(0, types.Zero)
	b := in.Leaf(0, types.Zero)
	if a != b {
		t.Fatal("identical leaves interned differently")
	}
	c := in.Leaf(0, types.One)
	d := in.Leaf(1, types.Zero)
	if a == c || a == d || c == d {
		t.Fatal("distinct leaves shared an ID")
	}
	if in.Size() != 3 {
		t.Fatalf("Size = %d, want 3", in.Size())
	}
	l1 := in.Leaf(1, types.One)
	l2 := in.Leaf(2, types.One)
	e1 := in.Extend(0, a, []ID{a, l1, l2})
	e2 := in.Extend(0, a, []ID{a, l1, l2})
	if e1 != e2 {
		t.Fatal("identical extensions interned differently")
	}
	e3 := in.Extend(0, a, []ID{a, NoView, l2})
	if e1 == e3 {
		t.Fatal("different extensions shared an ID")
	}
	if in.Proc(e1) != 0 || in.Time(e1) != 1 || in.Initial(e1) != types.Zero {
		t.Fatal("node accessors wrong")
	}
	if in.Prev(e1) != a || in.From(e1, 1) != l1 || in.From(e3, 1) != NoView {
		t.Fatal("From/Prev wrong")
	}
	if in.Prev(a) != NoView || in.From(a, 1) != NoView {
		t.Fatal("leaf Prev/From should be NoView")
	}
}

func TestInternerPanics(t *testing.T) {
	check := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
	check("n too small", func() { NewInterner(1) })
	in := NewInterner(3)
	check("leaf proc range", func() { in.Leaf(3, types.Zero) })
	check("leaf bad value", func() { in.Leaf(0, types.Unset) })
	a := in.Leaf(0, types.Zero)
	l1 := in.Leaf(1, types.One)
	check("extend bad len", func() { in.Extend(0, a, []ID{a, l1}) })
	check("extend wrong owner", func() { in.Extend(1, a, []ID{a, l1, NoView}) })
	check("extend child owner mismatch", func() { in.Extend(0, a, []ID{a, a, NoView}) })
	e := in.Extend(0, a, []ID{a, l1, NoView})
	check("extend child time mismatch", func() { in.Extend(0, e, []ID{e, l1, NoView}) })
	check("bad id", func() { in.Proc(ID(99)) })
	check("negative id", func() { in.Proc(NoView) })
}

func TestBuildRunFailureFree(t *testing.T) {
	in := NewInterner(3)
	cfg := mustConfig(t, "011")
	run := BuildRun(in, cfg, failures.FailureFree(failures.Omission, 3, 2))
	if len(run) != 3 {
		t.Fatalf("run has %d times, want 3", len(run))
	}
	v := run[1][0]
	if in.Time(v) != 1 || in.Proc(v) != 0 {
		t.Fatal("view metadata wrong")
	}
	kv := in.KnownValues(v)
	want := []types.Value{types.Zero, types.One, types.One}
	for i := range want {
		if kv[i] != want[i] {
			t.Fatalf("KnownValues[%d] = %v, want %v", i, kv[i], want[i])
		}
	}
	if in.HeardFrom(v) != types.SetOf(1, 2) {
		t.Fatalf("HeardFrom = %v", in.HeardFrom(v))
	}
	if !in.FaultEvidence(v).Empty() {
		t.Fatal("failure-free run should have no fault evidence")
	}
	if !in.Knows(v, types.Zero) || !in.Knows(v, types.One) {
		t.Fatal("Knows wrong")
	}
	if in.KnowsAll(v, types.One) {
		t.Fatal("KnowsAll(One) should be false (proc 0 has 0)")
	}
	all1 := BuildRun(in, mustConfig(t, "111"), failures.FailureFree(failures.Omission, 3, 1))
	if !in.KnowsAll(all1[1][2], types.One) {
		t.Fatal("KnowsAll(One) should hold in all-ones failure-free run")
	}
	// Leaves know only their own value and hear from nobody.
	leaf := run[0][1]
	if !in.HeardFrom(leaf).Empty() || in.Knows(leaf, types.Zero) {
		t.Fatal("leaf analyses wrong")
	}
}

func TestBuildRunMismatchPanics(t *testing.T) {
	in := NewInterner(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	BuildRun(in, mustConfig(t, "0011"), failures.FailureFree(failures.Crash, 4, 1))
}

func TestFaultEvidencePropagation(t *testing.T) {
	in := NewInterner(3)
	cfg := mustConfig(t, "011")
	// Processor 2 crashes in round 1, delivering to nobody.
	pat := failures.Silent(failures.Crash, 3, 3, 2, 1)
	run := BuildRun(in, cfg, pat)
	v0 := run[1][0]
	if in.FaultEvidence(v0) != types.SetOf(2) {
		t.Fatalf("direct evidence = %v, want {2}", in.FaultEvidence(v0))
	}
	if in.HeardFrom(v0) != types.SetOf(1) {
		t.Fatalf("HeardFrom = %v", in.HeardFrom(v0))
	}
	// Processor 0's knowledge of 2's value never arrives.
	if in.Knows(run[3][0], types.One) != true {
		t.Fatal("should know 1 from proc 1")
	}
	if in.KnownValues(run[3][0])[2] != types.Unset {
		t.Fatal("crashed processor's value should be unknown")
	}
	// Partial crash: 2 delivers round-1 message only to 1; 0 learns the
	// evidence against 2 in round 2 via 1's relayed view.
	in2 := NewInterner(3)
	pat2 := failures.MustPattern(failures.Crash, 3, 2, types.SetOf(2), map[types.ProcID]*failures.Behavior{
		2: failures.CrashBehavior(2, 3, 2, 1, types.SetOf(1)),
	})
	run2 := BuildRun(in2, cfg, pat2)
	if in2.FaultEvidence(run2[1][1]) != types.EmptySet {
		t.Fatal("proc 1 saw everything in round 1")
	}
	if in2.FaultEvidence(run2[1][0]) != types.SetOf(2) {
		t.Fatal("proc 0 missed 2's message")
	}
	if in2.FaultEvidence(run2[2][1]) != types.SetOf(2) {
		t.Fatal("proc 1 should learn evidence against 2 from 0's relay")
	}
	// And processor 1 received 2's value in round 1, so it knows it.
	if in2.KnownValues(run2[2][1])[2] != types.One {
		t.Fatal("proc 1 should know 2's value")
	}
}

func TestIndistinguishabilityAcrossRuns(t *testing.T) {
	// If processor 2 is silent from round 1, runs differing only in
	// 2's initial value are indistinguishable to 0 and 1 forever.
	in := NewInterner(3)
	pat := failures.Silent(failures.Omission, 3, 3, 2, 1)
	runA := BuildRun(in, mustConfig(t, "110"), pat)
	runB := BuildRun(in, mustConfig(t, "111"), pat)
	for m := 0; m <= 3; m++ {
		for _, p := range []int{0, 1} {
			if runA[m][p] != runB[m][p] {
				t.Fatalf("proc %d distinguishes at time %d", p, m)
			}
		}
	}
	if runA[1][2] == runB[1][2] {
		t.Fatal("silent processor knows its own value")
	}
}

func TestZeroChainAcceptance(t *testing.T) {
	// n=4, omission mode. Processor 0 starts with 0.
	cfg := mustConfig(t, "0111")

	t.Run("failure-free", func(t *testing.T) {
		in := NewInterner(4)
		run := BuildRun(in, cfg, failures.FailureFree(failures.Omission, 4, 2))
		if !in.AcceptsZeroAt(run[0][0]) || !in.BelievesExistsZeroStar(run[0][0]) {
			t.Fatal("initial-0 processor accepts at time 0")
		}
		if in.BelievesExistsZeroStar(run[0][1]) {
			t.Fatal("initial-1 processor should not accept at time 0")
		}
		for p := 1; p < 4; p++ {
			if !in.AcceptsZeroAt(run[1][p]) {
				t.Fatalf("proc %d should accept at time 1", p)
			}
		}
		// Acceptance persists via BelievesExistsZeroStar.
		if !in.BelievesExistsZeroStar(run[2][1]) {
			t.Fatal("belief should persist")
		}
		// But AcceptsZeroAt at time 2 concerns fresh chains only; proc 1
		// can still extend 2's time-1 chain, so it may accept again.
		if !in.AcceptsZeroAt(run[2][1]) {
			t.Fatal("proc 1 re-accepts via 2's chain")
		}
	})

	t.Run("relay chain", func(t *testing.T) {
		// 0 delivers round 1 only to 1, then is silent. The chain must
		// travel 0 -> 1 -> others.
		in := NewInterner(4)
		pat := failures.MustPattern(failures.Omission, 4, 3, types.SetOf(0), map[types.ProcID]*failures.Behavior{
			0: {Omit: []types.ProcSet{types.SetOf(2, 3), types.SetOf(1, 2, 3), types.SetOf(1, 2, 3)}},
		})
		run := BuildRun(in, cfg, pat)
		if !in.AcceptsZeroAt(run[1][1]) {
			t.Fatal("proc 1 accepts at time 1")
		}
		if in.BelievesExistsZeroStar(run[1][2]) {
			t.Fatal("proc 2 saw nothing at time 1")
		}
		if !in.AcceptsZeroAt(run[2][2]) || !in.AcceptsZeroAt(run[2][3]) {
			t.Fatal("procs 2,3 accept at time 2 via 1's relay")
		}
	})

	t.Run("stale chain rejected", func(t *testing.T) {
		// 0 (value 0) is silent in rounds 1-2 and delivers only to 3 in
		// round 3. 3 receives 0's time-2 view: it shows acceptance at
		// time 0, not time 2, so 3 cannot extend; and 3 cannot trust 0
		// (a faulty endpoint). 3 knows ∃0 but does not believe ∃0*.
		in := NewInterner(4)
		pat := failures.MustPattern(failures.Omission, 4, 3, types.SetOf(0), map[types.ProcID]*failures.Behavior{
			0: {Omit: []types.ProcSet{types.SetOf(1, 2, 3), types.SetOf(1, 2, 3), types.SetOf(1, 2)}},
		})
		run := BuildRun(in, cfg, pat)
		v3 := run[3][3]
		if !in.Knows(v3, types.Zero) {
			t.Fatal("proc 3 should know ∃0 from 0's relayed view")
		}
		if in.BelievesExistsZeroStar(v3) {
			t.Fatal("stale chain must not yield belief in ∃0*")
		}
	})

	t.Run("known-faulty relayer rejected", func(t *testing.T) {
		// 0 (value 0) delivers round 1 only to 1. 1 is itself faulty:
		// it delivers its round-2 message only to 2 — but 2 already has
		// evidence that 1 is faulty? No: evidence against 1 arises only
		// if 1 omits and the victim's report reaches 2. Construct
		// instead: 1 omits to 2 in round 1 (2 has direct evidence), and
		// 0's chain goes 0 -> 1 (time 1) -> 2 (round 2). 2 knows 1 is
		// faulty at time 2, so the hop is rejected.
		in := NewInterner(4)
		pat := failures.MustPattern(failures.Omission, 4, 3, types.SetOf(0, 1), map[types.ProcID]*failures.Behavior{
			0: {Omit: []types.ProcSet{types.SetOf(2, 3), types.SetOf(1, 2, 3), types.SetOf(1, 2, 3)}},
			1: {Omit: []types.ProcSet{types.SetOf(2), types.SetOf(0, 3), types.EmptySet}},
		})
		run := BuildRun(in, cfg, pat)
		if !in.FaultEvidence(run[1][2]).Contains(1) {
			t.Fatal("proc 2 should have direct evidence against 1")
		}
		if !in.AcceptsZeroAt(run[1][1]) {
			t.Fatal("proc 1 accepts at time 1")
		}
		// Round 2: 1 delivers only to 2; 2 rejects the hop (knows 1 faulty).
		if in.BelievesExistsZeroStar(run[2][2]) {
			t.Fatal("proc 2 must reject a chain through a known-faulty relayer")
		}
		// Proc 3 heard nothing of the chain.
		if in.BelievesExistsZeroStar(run[2][3]) {
			t.Fatal("proc 3 has no chain")
		}
	})

	t.Run("distinctness", func(t *testing.T) {
		// A chain cannot revisit a processor. 0 -> 1 with 0 then silent:
		// at time 2, 1's only extension source is its own time-1 chain
		// relayed back by others? Others never accepted, so 1 cannot
		// accept at time 2; belief persists from time 1 regardless.
		in := NewInterner(4)
		pat := failures.MustPattern(failures.Omission, 4, 3, types.SetOf(0), map[types.ProcID]*failures.Behavior{
			0: {Omit: []types.ProcSet{types.SetOf(2, 3), types.SetOf(1, 2, 3), types.SetOf(1, 2, 3)}},
		})
		run := BuildRun(in, cfg, pat)
		if in.AcceptsZeroAt(run[3][1]) {
			// At time 3, 1 could accept via 2's or 3's time-2 chain
			// {0,1,2} / {0,1,3}... but those contain 1. Must be false.
			t.Fatal("chain revisiting proc 1 accepted")
		}
		if !in.BelievesExistsZeroStar(run[3][1]) {
			t.Fatal("belief should persist from time 1")
		}
	})
}

func TestStringRendering(t *testing.T) {
	in := NewInterner(3)
	run := BuildRun(in, mustConfig(t, "011"), failures.Silent(failures.Crash, 3, 1, 2, 1))
	s := in.String(run[1][0])
	for _, want := range []string{"p0@1", "p0=0", "p1=1", "2:×"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String = %q, missing %q", s, want)
		}
	}
	if in.String(NoView) != "×" {
		t.Fatal("NoView rendering wrong")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := NewInterner(4)
	cfg := mustConfig(t, "0110")
	pat := failures.MustPattern(failures.Omission, 4, 3, types.SetOf(2), map[types.ProcID]*failures.Behavior{
		2: {Omit: []types.ProcSet{types.SetOf(0), types.EmptySet, types.SetOf(1, 3)}},
	})
	run := BuildRun(in, cfg, pat)
	for m := 0; m <= 3; m++ {
		for p := 0; p < 4; p++ {
			data := Marshal(in, run[m][p])
			// Same interner: must map back to the identical ID.
			got, err := Unmarshal(in, data)
			if err != nil {
				t.Fatal(err)
			}
			if got != run[m][p] {
				t.Fatalf("round trip changed ID at (%d,%d)", m, p)
			}
			// Fresh interner: structure preserved (re-marshal equality).
			in2 := NewInterner(4)
			got2, err := Unmarshal(in2, data)
			if err != nil {
				t.Fatal(err)
			}
			if in2.String(got2) != in.String(run[m][p]) {
				t.Fatal("structure changed across interners")
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	in := NewInterner(3)
	v := BuildRun(in, mustConfig(t, "011"), failures.FailureFree(failures.Omission, 3, 2))[2][0]
	data := Marshal(in, v)

	// reject requires Unmarshal to refuse buf and to leave the receiving
	// interner as it found it: a view is interned only once the whole
	// encoding has passed every check.
	reject := func(t *testing.T, recv *Interner, buf []byte) {
		t.Helper()
		size := recv.Size()
		if _, err := Unmarshal(recv, buf); err == nil {
			t.Fatal("corrupt encoding accepted")
		}
		if recv.Size() != size {
			t.Fatalf("rejected encoding interned %d views", recv.Size()-size)
		}
	}
	reject(t, NewInterner(4), data) // wrong n
	for cut := 1; cut < len(data); cut += 3 {
		reject(t, NewInterner(3), data[:cut])
	}
	reject(t, NewInterner(3), nil)
	// The root is the last node (p0@2: processor, time, three child
	// references); a forward reference there comes after six good
	// nodes.
	late := bytes.Clone(data)
	late[len(late)-3] = 99
	reject(t, NewInterner(3), late)

	// Hand-crafted corrupt encodings.
	bad := func(name string, buf []byte) {
		t.Run(name, func(t *testing.T) { reject(t, NewInterner(3), buf) })
	}
	bad("zero nodes", []byte{3, 0})
	bad("proc out of range", []byte{3, 1, 9, 0, 0})
	bad("bad initial", []byte{3, 1, 0, 0, 7})
	bad("missing own view", []byte{3, 2, 1, 0, 1 /* node for p0@1: */, 0, 1, 0, 0, 0})
	bad("forward ref", []byte{3, 1, 0, 1, 9, 9, 9})
	bad("huge node count", append([]byte{3}, 0xff, 0xff, 0xff, 0xff, 0x7f))
	// Three leaves, then a node claiming time 2 over them: its
	// children are at time 0, not 1.
	bad("child at the wrong time", []byte{3, 4, 0, 0, 0, 1, 0, 1, 2, 0, 1 /* p0@2: */, 0, 2, 1, 2, 3})
	// Three leaves, then p0@1 whose slot for p1 holds p2's leaf.
	bad("child owned by another processor", []byte{3, 4, 0, 0, 0, 1, 0, 1, 2, 0, 1 /* p0@1: */, 0, 1, 1, 3, 2})
}
