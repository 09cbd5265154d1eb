package fip

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// p0pair: decide 0 on a recorded 0, decide 1 at time >= t+1 without
// one. Used across the tests as a concrete, correct crash-mode pair.
func p0pair(t int) Pair {
	return Pair{
		Name: "p0",
		Z: FromPred("p0.Z", func(in *views.Interner, id views.ID) bool {
			return in.Knows(id, types.Zero)
		}),
		O: FromPred("p0.O", func(in *views.Interner, id views.ID) bool {
			return int(in.Time(id)) >= t+1 && !in.Knows(id, types.Zero)
		}),
	}
}

func crashSys(t *testing.T, n, tt, h int) *system.System {
	t.Helper()
	sys, err := system.Enumerate(types.Params{N: n, T: tt}, failures.Crash, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDecisionSets(t *testing.T) {
	in := views.NewInterner(3)
	leaf0 := in.Leaf(0, types.Zero)
	leaf1 := in.Leaf(1, types.One)

	empty := Empty("none")
	if empty.Contains(in, leaf0) || empty.Name() != "none" {
		t.Fatal("Empty set wrong")
	}
	if Size(empty) != -1 {
		t.Fatal("Size of rule set should be -1")
	}

	member := make([]bool, in.Size())
	member[leaf0] = true
	tbl := FromTable("tbl", in, member)
	if !tbl.Contains(in, leaf0) || tbl.Contains(in, leaf1) {
		t.Fatal("table set wrong")
	}
	if Size(tbl) != 1 {
		t.Fatal("Size of table set wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign interner accepted")
		}
	}()
	tbl.Contains(views.NewInterner(3), leaf0)
}

// TestTableSetEdges pins the dense table's behaviour off its ends:
// NoView and views interned after the table was made are not members
// (where the map it replaced answered false for an absent key), Size
// counts members rather than table slots, and a table longer than the
// interner — IDs that cannot have come from it — is refused.
func TestTableSetEdges(t *testing.T) {
	in := views.NewInterner(3)
	leaf0 := in.Leaf(0, types.Zero)
	leaf1 := in.Leaf(1, types.One)
	member := make([]bool, in.Size())
	member[leaf0], member[leaf1] = true, true
	tbl := FromTable("tbl", in, member)
	late := in.Leaf(2, types.One)
	for _, id := range []views.ID{views.NoView, late, views.ID(in.Size()), views.ID(1 << 20)} {
		if tbl.Contains(in, id) {
			t.Errorf("view %d is outside the table but reported a member", id)
		}
	}
	if got := Size(tbl); got != 2 {
		t.Errorf("Size = %d, want 2", got)
	}
	if got := Size(FromTable("none", in, make([]bool, in.Size()))); got != 0 {
		t.Errorf("Size of an all-false table = %d, want 0", got)
	}
	if got := Size(FromTable("nil", in, nil)); got != 0 || FromTable("nil", in, nil).Contains(in, leaf0) {
		t.Errorf("nil table: Size %d, or it has members", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a table longer than its interner was accepted")
		}
	}()
	FromTable("long", in, make([]bool, in.Size()+1))
}

func TestPairDecidePriority(t *testing.T) {
	in := views.NewInterner(3)
	leaf := in.Leaf(0, types.Zero)
	all := FromPred("all", func(*views.Interner, views.ID) bool { return true })
	p := Pair{Name: "both", Z: all, O: all}
	v, ok := p.Decide(in, leaf)
	if !ok || v != types.Zero {
		t.Fatal("Z must win when both sets contain the view")
	}
	none := Pair{Name: "none", Z: Empty("z"), O: Empty("o")}
	if _, ok := none.Decide(in, leaf); ok {
		t.Fatal("empty pair decided")
	}
}

func TestDecisionAtAndMonotone(t *testing.T) {
	sys := crashSys(t, 3, 1, 3)
	p := p0pair(1)
	if err := Monotone(sys, p); err != nil {
		t.Fatal(err)
	}
	// Failure-free all-zeros: everyone decides 0 at time 0.
	run, ok := sys.FindRun(types.ConfigFromBits(3, 0), failures.FailureFree(failures.Crash, 3, 3).Key())
	if !ok {
		t.Fatal("run missing")
	}
	for proc := types.ProcID(0); proc < 3; proc++ {
		v, at, ok := DecisionAt(sys, p, run, proc)
		if !ok || v != types.Zero || at != 0 {
			t.Fatalf("proc %d: (%v,%d,%v)", proc, v, at, ok)
		}
	}
	// The never-deciding pair reports no decision.
	if _, _, ok := DecisionAt(sys, Pair{Name: "Λ", Z: Empty("z"), O: Empty("o")}, run, 0); ok {
		t.Fatal("empty pair decided")
	}

	// A non-monotone rule is caught: "decide 1 exactly at even times".
	evil := Pair{
		Name: "evil",
		Z:    Empty("z"),
		O: FromPred("even", func(in *views.Interner, id views.ID) bool {
			return in.Time(id)%2 == 0
		}),
	}
	if err := Monotone(sys, evil); err == nil {
		t.Fatal("non-monotone pair accepted")
	}
}

// The sim adapter reproduces DecisionAt on every enumerated run.
func TestProtocolMatchesDecisionAt(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	p := p0pair(1)
	params := types.Params{N: 3, T: 1}
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		proto := Protocol(sys.Interner, p)
		tr, err := sim.Run(proto, params, run.Config(), run.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		for proc := types.ProcID(0); proc < 3; proc++ {
			wantV, wantAt, wantOK := DecisionAt(sys, p, run, proc)
			gotV, gotAt, gotOK := tr.DecisionOf(proc)
			if wantV != gotV || wantAt != gotAt || wantOK != gotOK {
				t.Fatalf("run %d proc %d: sim (%v,%d,%v) vs table (%v,%d,%v)",
					run.Index, proc, gotV, gotAt, gotOK, wantV, wantAt, wantOK)
			}
		}
	}
}

// The wire adapter (serialized views, per-process interners) agrees
// with the shared-interner adapter on the round engine.
func TestWireProtocolMatchesProtocol(t *testing.T) {
	params := types.Params{N: 3, T: 1}
	p := p0pair(1)
	pats, err := failures.EnumCrash(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < len(pats); pi += 5 {
		pat := pats[pi]
		for mask := uint64(0); mask < 8; mask++ {
			cfg := types.ConfigFromBits(3, mask)
			in := views.NewInterner(3)
			want, err := sim.Run(Protocol(in, p), params, cfg, pat)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(WireProtocol(p), params, cfg, pat)
			if err != nil {
				t.Fatal(err)
			}
			for proc := types.ProcID(0); proc < 3; proc++ {
				wv, wa, wok := want.DecisionOf(proc)
				gv, ga, gok := got.DecisionOf(proc)
				if wv != gv || wa != ga || wok != gok {
					t.Fatalf("pattern %s cfg %s proc %d: wire (%v,%d,%v) vs sim (%v,%d,%v)",
						pat, cfg, proc, gv, ga, gok, wv, wa, wok)
				}
			}
		}
	}
}

func TestProtocolNames(t *testing.T) {
	p := p0pair(1)
	if Protocol(views.NewInterner(3), p).Name() != "FIP(p0)" {
		t.Fatal("Protocol name wrong")
	}
	if WireProtocol(p).Name() != "FIPwire(p0)" {
		t.Fatal("WireProtocol name wrong")
	}
}
