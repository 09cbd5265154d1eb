// Benchmarks: one per reproduction experiment (the paper's
// propositions/theorems play the role of tables and figures — see
// DESIGN.md's per-experiment index), plus micro-benchmarks of the
// substrates (enumeration, interning, knowledge evaluation, and the
// round engine).
package eba_test

import (
	"testing"

	eba "github.com/eventual-agreement/eba"
	"github.com/eventual-agreement/eba/internal/exp"
)

// benchExperiment runs one experiment per iteration and fails the
// benchmark if the reproduction does not pass.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed: %s", id, res.Summary)
		}
	}
}

func BenchmarkE1NoOptimum(b *testing.B)              { benchExperiment(b, "E1") }
func BenchmarkE2Dominance(b *testing.B)              { benchExperiment(b, "E2") }
func BenchmarkE3S5(b *testing.B)                     { benchExperiment(b, "E3") }
func BenchmarkE4CBoxAxioms(b *testing.B)             { benchExperiment(b, "E4") }
func BenchmarkE5StrictlyStronger(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6CrashOptimal(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7OmissionNontermination(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8ChainBound(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE9OmissionOptimal(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Characterization(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11WorstCase(b *testing.B)             { benchExperiment(b, "E11") }
func BenchmarkE12Distributions(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13EBAvsSBA(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14EventualCK(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15Halting(b *testing.B)               { benchExperiment(b, "E15") }
func BenchmarkE16Uniform(b *testing.B)               { benchExperiment(b, "E16") }
func BenchmarkE18MessageSize(b *testing.B)           { benchExperiment(b, "E18") }
func BenchmarkE19Multivalued(b *testing.B)           { benchExperiment(b, "E19") }
func BenchmarkE20WasteRule(b *testing.B)             { benchExperiment(b, "E20") }
func BenchmarkE21Coordination(b *testing.B)          { benchExperiment(b, "E21") }
func BenchmarkA1Horizon(b *testing.B)                { benchExperiment(b, "A1") }
func BenchmarkA2Interning(b *testing.B)              { benchExperiment(b, "A2") }
func BenchmarkA3CBoxAlgorithms(b *testing.B)         { benchExperiment(b, "A3") }
func BenchmarkA4ConvergenceDepth(b *testing.B)       { benchExperiment(b, "A4") }

// --- substrate micro-benchmarks ---

// BenchmarkSystemEnumerationCrash measures enumerating the n=4, t=1,
// h=3 crash system (1424 runs) including view interning.
func BenchmarkSystemEnumerationCrash(b *testing.B) {
	params := eba.Params{N: 4, T: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eba.NewSystem(params, eba.Crash, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemEnumerationOmission measures the n=3, t=1, h=3
// omission system (1544 runs).
func BenchmarkSystemEnumerationOmission(b *testing.B) {
	params := eba.Params{N: 3, T: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eba.NewSystem(params, eba.Omission, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCBoxEvaluation measures one continual-common-knowledge
// table over a fresh evaluator (run-level reachability).
func BenchmarkCBoxEvaluation(b *testing.B) {
	sys, err := eba.NewSystem(eba.Params{N: 4, T: 1}, eba.Crash, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := eba.NewEvaluator(sys)
		e.Eval(eba.CBox(eba.Nonfaulty(), eba.Exists0()))
	}
}

// BenchmarkTwoStep measures the full two-step construction on the
// n=3, t=1 crash system.
func BenchmarkTwoStep(b *testing.B) {
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Crash, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := eba.NewEvaluator(sys)
		eba.TwoStep(e, eba.NeverDecide())
	}
}

// BenchmarkSimEngine measures one deterministic P0opt run at n=8.
func BenchmarkSimEngine(b *testing.B) {
	params := eba.Params{N: 8, T: 2}
	cfg := eba.ConfigFromBits(8, 0b10110100)
	pat := eba.Silent(eba.Crash, 8, 4, 3, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eba.Run(eba.P0Opt(), params, cfg, pat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChain0Omission measures a chain-protocol run under an
// adversarial omission pattern at n=8.
func BenchmarkChain0Omission(b *testing.B) {
	params := eba.Params{N: 8, T: 2}
	cfg := eba.ConfigFromBits(8, 0b11111110)
	pat := eba.SilentExcept(8, 4, 0, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eba.Run(eba.Chain0(), params, cfg, pat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormulaParse measures the query parser.
func BenchmarkFormulaParse(b *testing.B) {
	const src = "B0 (E0 & Cbox E0) -> (C E1 <-> !dia knows2=0)"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eba.ParseFormula(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalityOracle measures one Theorem 5.3 check.
func BenchmarkOptimalityOracle(b *testing.B) {
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Crash, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	pair := eba.P0OptPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := eba.NewEvaluator(sys)
		if ok, reason := eba.IsOptimal(e, pair); !ok {
			b.Fatal(reason)
		}
	}
}
