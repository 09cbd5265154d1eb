package protocols

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/transport"
	"github.com/eventual-agreement/eba/internal/types"
)

func enum(t *testing.T, n, tt int, mode failures.Mode, h int) *system.System {
	t.Helper()
	sys, err := system.Enumerate(types.Params{N: n, T: tt}, mode, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// assertTraceMatchesPair checks that the concrete protocol's trace
// coincides with the decision pair's prescription on every run of the
// system, for nonfaulty processors.
func assertTraceMatchesPair(t *testing.T, sys *system.System, proto sim.Protocol, pair fip.Pair) {
	t.Helper()
	params := sys.Params
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		tr, err := sim.Run(proto, params, run.Config(), run.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		for _, proc := range run.Nonfaulty().Members() {
			wantV, wantAt, wantOK := fip.DecisionAt(sys, pair, run, proc)
			gotV, gotAt, gotOK := tr.DecisionOf(proc)
			if wantV != gotV || wantAt != gotAt || wantOK != gotOK {
				t.Fatalf("%s run %d (cfg %s, %s) proc %d: concrete (%v,%d,%v) vs pair (%v,%d,%v)",
					proto.Name(), run.Index, run.Config(), run.Pattern(), proc,
					gotV, gotAt, gotOK, wantV, wantAt, wantOK)
			}
		}
	}
}

func TestLF82PanicsOnUnset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	LF82(types.Unset)
}

func TestLF82Names(t *testing.T) {
	if LF82(types.Zero).Name() != "P0" || LF82(types.One).Name() != "P1" {
		t.Fatal("names wrong")
	}
}

// The concrete P0/P1 match their decision pairs on every crash run.
func TestLF82MatchesPairsCrash(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 3)
	assertTraceMatchesPair(t, sys, LF82(types.Zero), P0Pair(1))
	assertTraceMatchesPair(t, sys, LF82(types.One), P1Pair(1))
}

// The concrete P0opt matches its decision pair on every crash run.
func TestP0OptMatchesPairCrash(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 3)
	assertTraceMatchesPair(t, sys, P0Opt(), P0OptPair())
}

func TestP0OptMatchesPairCrashN4T2(t *testing.T) {
	if testing.Short() {
		t.Skip("large enumeration")
	}
	sys := enum(t, 4, 2, failures.Crash, 3)
	assertTraceMatchesPair(t, sys, P0Opt(), P0OptPair())
}

// Theorems 6.1 and 6.2: the knowledge-derived F^Λ,2 and the concrete
// P0opt make the same decisions at nonfaulty states, and P0opt is an
// optimal EBA protocol for the crash mode.
func TestTheorem62P0OptEqualsFLam2(t *testing.T) {
	for _, size := range []struct{ n, t, h int }{
		{3, 1, 3},
		{4, 1, 3},
	} {
		sys := enum(t, size.n, size.t, failures.Crash, size.h)
		e := knowledge.NewEvaluator(sys)
		flam := fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
		f2 := core.TwoStep(e, flam)
		p0opt := P0OptPair()
		if ok, diff := core.EqualOnNonfaulty(sys, f2, p0opt); !ok {
			t.Fatalf("n=%d t=%d: F^Λ,2 and P0opt differ: %s", size.n, size.t, diff)
		}
		if err := core.CheckEBA(sys, p0opt); err != nil {
			t.Fatal(err)
		}
		if ok, reason := core.IsOptimal(e, p0opt); !ok {
			t.Fatalf("P0opt should be optimal: %s", reason)
		}
	}
}

// P0opt strictly dominates P0 in the crash mode (Section 2.2).
func TestP0OptStrictlyDominatesP0(t *testing.T) {
	sys := enum(t, 3, 1, failures.Crash, 3)
	if !core.StrictlyDominates(sys, P0OptPair(), P0Pair(1)) {
		t.Fatal("P0opt should strictly dominate P0")
	}
}

// The failure mode matters (Section 5's closing discussion): the
// crash-mode optimum P0opt is unsafe under sending omissions — a
// faulty processor can reveal a 0 to one survivor after another has
// concluded no 0 exists.
func TestP0OptBreaksUnderOmission(t *testing.T) {
	sys := enum(t, 3, 1, failures.Omission, 3)
	if err := core.CheckWeakAgreement(sys, P0OptPair()); err == nil {
		t.Fatal("P0opt should violate weak agreement in the omission mode")
	}
	// Its validity and decision conditions still hold — only the
	// agreement argument depended on crash-mode propagation.
	if err := core.CheckWeakValidity(sys, P0OptPair()); err != nil {
		t.Fatal(err)
	}
	if err := core.CheckDecision(sys, P0OptPair()); err != nil {
		t.Fatal(err)
	}
}

// The concrete Chain0 protocol achieves EBA in the omission mode and
// decides within f+1 rounds (Proposition 6.4 / Corollary 6.5).
func TestChain0EBAOmission(t *testing.T) {
	sys := enum(t, 3, 1, failures.Omission, 3)
	params := sys.Params
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		tr, err := sim.Run(Chain0(), params, run.Config(), run.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		f := run.Pattern().VisiblyFaulty().Len()
		var saw [2]bool
		for _, proc := range run.Nonfaulty().Members() {
			v, at, ok := tr.DecisionOf(proc)
			if !ok {
				t.Fatalf("nonfaulty %d undecided in run %d (cfg %s, %s)",
					proc, run.Index, run.Config(), run.Pattern())
			}
			if int(at) > f+1 {
				t.Fatalf("run %d: proc %d decided at %d > f+1 = %d (%s)",
					run.Index, proc, at, f+1, run.Pattern())
			}
			saw[v] = true
		}
		if saw[0] && saw[1] {
			t.Fatalf("agreement violated in run %d (cfg %s, %s)", run.Index, run.Config(), run.Pattern())
		}
		if v, same := run.Config().AllEqual(); same {
			for _, proc := range run.Nonfaulty().Members() {
				if got, _, _ := tr.DecisionOf(proc); got != v {
					t.Fatalf("validity violated in run %d", run.Index)
				}
			}
		}
	}
}

// The syntactic Chain0 pair (view-based) coincides with the semantic
// FIP(𝒵⁰, 𝒪⁰) at nonfaulty states.
func TestChain0SyntacticMatchesSemantic(t *testing.T) {
	sys := enum(t, 3, 1, failures.Omission, 3)
	e := knowledge.NewEvaluator(sys)
	sem := Chain0SemanticPair(e)
	syn := Chain0SyntacticPair()
	if ok, diff := core.EqualOnNonfaulty(sys, sem, syn); !ok {
		t.Fatalf("syntactic and semantic chain pairs differ: %s", diff)
	}
	if err := core.CheckEBA(sys, syn); err != nil {
		t.Fatal(err)
	}
}

// The concrete Chain0 is dominated by the full-information pair (it
// sees strictly less: certificates only on first acceptance), and
// never decides a different value at nonfaulty states.
func TestChain0DominatedByPair(t *testing.T) {
	sys := enum(t, 3, 1, failures.Omission, 3)
	syn := Chain0SyntacticPair()
	params := sys.Params
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		tr, err := sim.Run(Chain0(), params, run.Config(), run.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		for _, proc := range run.Nonfaulty().Members() {
			pv, pAt, pOK := fip.DecisionAt(sys, syn, run, proc)
			cv, cAt, cOK := tr.DecisionOf(proc)
			if !cOK {
				t.Fatalf("concrete undecided in run %d proc %d", run.Index, proc)
			}
			if !pOK || pAt > cAt {
				t.Fatalf("pair decides later than concrete in run %d proc %d", run.Index, proc)
			}
			if pv != cv {
				t.Fatalf("pair and concrete decide differently in run %d (cfg %s, %s) proc %d: %v vs %v",
					run.Index, run.Config(), run.Pattern(), proc, pv, cv)
			}
		}
	}
}

// Chain0 behaves identically on the goroutine transport.
func TestChain0OverTransport(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	pats, err := failures.EnumOmission(4, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < len(pats); pi += 17 {
		pat := pats[pi]
		for mask := uint64(0); mask < 16; mask += 5 {
			cfg := types.ConfigFromBits(4, mask)
			want, err := sim.Run(Chain0(), params, cfg, pat)
			if err != nil {
				t.Fatal(err)
			}
			got, err := transport.Run(Chain0(), params, cfg, pat)
			if err != nil {
				t.Fatal(err)
			}
			for p := types.ProcID(0); p < 4; p++ {
				wv, wa, wok := want.DecisionOf(p)
				gv, ga, gok := got.DecisionOf(p)
				if wv != gv || wa != ga || wok != gok {
					t.Fatalf("pattern %s cfg %s proc %d mismatch", pat, cfg, p)
				}
			}
		}
	}
}

// P0opt behaves identically on the goroutine transport.
func TestP0OptOverTransport(t *testing.T) {
	params := types.Params{N: 4, T: 1}
	pats, err := failures.EnumCrash(4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < len(pats); pi += 11 {
		pat := pats[pi]
		cfg := types.ConfigFromBits(4, uint64(pi)%16)
		want, err := sim.Run(P0Opt(), params, cfg, pat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transport.Run(P0Opt(), params, cfg, pat)
		if err != nil {
			t.Fatal(err)
		}
		for p := types.ProcID(0); p < 4; p++ {
			wv, wa, wok := want.DecisionOf(p)
			gv, ga, gok := got.DecisionOf(p)
			if wv != gv || wa != ga || wok != gok {
				t.Fatalf("pattern %s proc %d mismatch", pat, p)
			}
		}
	}
}
