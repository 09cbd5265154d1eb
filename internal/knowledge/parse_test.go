package knowledge

import (
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

func TestParseRendersAndEvaluates(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	e := NewEvaluator(sys)
	tests := []struct {
		src   string
		valid bool
	}{
		{"E0 | !E0", true},
		{"E0 & !E0", false},
		{"K0 E0 -> E0", true},
		{"E0 -> K0 E0", false},
		{"Cbox E0 -> C E0", true},
		{"C E0 -> Cbox E0", false},
		{"C E1 -> Cdia E1", true},
		{"box E0 <-> E0", true},
		{"alw E0 -> ev E0", true},
		{"B0 (E0 & E1) -> B0 E0", true},
		{"(K1 E1 & K1 (E1 -> E0)) -> K1 E0", true},
		{"!K2 E0 -> K2 !K2 E0", true},
		{"init0=1 -> E1", true},
		{"nf0 | nf1 | nf2", true},
		{"knows1=0 -> K1 E0", true},
		{"dia knows0=0 <-> ev knows0=0 | !ev knows0=0 & dia knows0=0", true},
		{"E E0 -> C E0", false},
		{"C E0 -> E E0", true},
	}
	for _, tt := range tests {
		f, err := Parse(tt.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tt.src, err)
		}
		if got := e.Valid(f); got != tt.valid {
			t.Errorf("Valid(%q) = %v, want %v (parsed: %s)", tt.src, got, tt.valid, f)
		}
	}
}

func TestParsePrecedenceAndAssociativity(t *testing.T) {
	// -> is right-associative: a -> b -> c == a -> (b -> c).
	f, err := Parse("E0 -> E1 -> E0")
	if err != nil {
		t.Fatal(err)
	}
	sys := crashSys(t, 3, 1, 2)
	if !NewEvaluator(sys).Valid(f) {
		t.Fatal("right-associative implication should make this valid")
	}
	// & binds tighter than |.
	g, err := Parse("E0 & false | E1")
	if err != nil {
		t.Fatal(err)
	}
	h := Or(And(Exists0(), False()), Exists1())
	e := NewEvaluator(sys)
	if !e.Eval(g).Equal(e.Eval(h)) {
		t.Fatal("precedence wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(E0",
		"E0 )",
		"E0 &",
		"-> E0",
		"K E0",
		"Kx E0",
		"init0 E0",
		"init0=5",
		"knows=1",
		"gibberish",
		"! ",
		"E0 E1",
		"K٣ E0",                    // only ASCII digits index a processor
		"init٣=1",                  // ... or name one in an atom
		"nf٣",                      //
		"knows0=١",                 // ... or a value
		"K99999999999999999999 E0", // an index that does not fit
		"B99999999999999999999 E0",
		"nf99999999999999999999",
		"init99999999999999999999=1",
		"knows0=99999999999999999999",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestParsedModalitiesMatchConstructors(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	e := NewEvaluator(sys)
	nf := Nonfaulty()
	pairs := []struct {
		src  string
		want Formula
	}{
		{"K1 E0", K(1, Exists0())},
		{"B2 E1", B(2, nf, Exists1())},
		{"E E0", E(nf, Exists0())},
		{"C E0", C(nf, Exists0())},
		{"Cbox E1", CBox(nf, Exists1())},
		{"Cdia E1", CDiamond(nf, Exists1())},
		{"box E0", Box(Exists0())},
		{"dia E0", Diamond(Exists0())},
		{"alw E0", Henceforth(Exists0())},
		{"ev E0", Future(Exists0())},
	}
	for _, p := range pairs {
		got, err := Parse(p.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.src, err)
		}
		if !e.Eval(got).Equal(e.Eval(p.want)) {
			t.Errorf("Parse(%q) differs from constructor (got %s)", p.src, got)
		}
	}
	// Nested formula sanity: rendering mentions the right pieces.
	f, err := Parse("B0 (E0 & Cbox E0)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.String(), "C□_𝒩") {
		t.Fatalf("rendered: %s", f)
	}
}

// TestMaxProc: the largest processor a formula names, through every
// operator that can hold one; -1 for a formula that names none.
func TestMaxProc(t *testing.T) {
	for src, want := range map[string]types.ProcID{
		"E0 & true":                 -1,
		"K1 E0":                     1,
		"B7 E0":                     7,
		"Cbox (knows4=1 | nf2)":     4,
		"alw !(init5=0 -> E K3 E1)": 5,
		"Cdia ev dia box C nf6":     6,
	} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := MaxProc(f); got != want {
			t.Errorf("MaxProc(%q) = %d, want %d", src, got, want)
		}
	}
}

// FuzzParse: Parse never panics, and a formula it accepts that names
// only processors the system has means the same to the evaluator and to
// RefHolds at every point of crash n=2 t=1 h=1. Formulas with more than three
// modal operators are only parsed: the reference is exponential in
// their nesting.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"E0 | !E0", "K0 E0 -> E0", "Cbox E0 -> C E0", "C E0 -> Cbox E0",
		"box E0 <-> E0", "alw E0 -> ev E0", "B0 (E0 & E1) -> B0 E0",
		"init0=1 -> E1", "nf0 | nf1", "knows1=0 -> K1 E0", "E E0 -> Cbox E0",
		"K0 E0", "K٣ E0", "K99999999999999999999 E0", "(E0", "Kx E0",
		"Cdia E0 -> E0", "K1 Cdia E1", "Cdia ev E0",
	} {
		f.Add(src)
	}
	sys, err := system.Enumerate(types.Params{N: 2, T: 1}, failures.Crash, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil || MaxProc(g) >= 2 {
			return
		}
		s := g.String()
		if strings.Count(s, "_")+strings.Count(s, "□")+strings.Count(s, "◇") > 3 {
			return
		}
		tbl := NewEvaluator(sys).Eval(g)
		for idx := 0; idx < sys.NumPoints(); idx++ {
			if want := RefHolds(sys, g, sys.PointAt(idx)); tbl.Get(idx) != want {
				t.Fatalf("%q (%s) at %v: evaluator %v, reference %v", src, g, sys.PointAt(idx), tbl.Get(idx), want)
			}
		}
	})
}

// FuzzParseSameString: a result file is filed under its formula's
// rendering and holds only the verdict, so two formulas that render
// alike must mean the same. When both inputs parse, name only the
// system's processors and have equal String(), their truth tables on
// crash n=2 t=1 h=1 must be equal.
func FuzzParseSameString(f *testing.F) {
	for _, pair := range [][2]string{
		{"E0 -> E1", "!E0 | E1"},
		{"E0 <-> E1", "(E0 -> E1) & (E1 -> E0)"},
		{"K0(E0)", "K0 E0"},
		{"E0 & E1 & E0", "(E0 & E1) & E0"},
		{"Cdia E0 -> E0", "!Cdia E0 | E0"},
		{"Cbox E0 -> C E0", "(Cbox E0) -> (C E0)"},
		{"alw E0", "box E0"},
		{"init0=1", "knows0=1"},
	} {
		f.Add(pair[0], pair[1])
	}
	sys, err := system.Enumerate(types.Params{N: 2, T: 1}, failures.Crash, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		fa, err := Parse(a)
		if err != nil || MaxProc(fa) >= 2 {
			return
		}
		fb, err := Parse(b)
		if err != nil || MaxProc(fb) >= 2 || fa.String() != fb.String() {
			return
		}
		if ta, tb := NewEvaluator(sys).Eval(fa), NewEvaluator(sys).Eval(fb); !ta.Equal(tb) {
			t.Fatalf("%q and %q both render %s, but their truth tables differ", a, b, fa)
		}
	})
}
