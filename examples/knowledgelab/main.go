// Knowledgelab is a playground for the paper's epistemic logic: it
// builds a small crash-mode system and walks through the knowledge
// states that drive the theory — what a processor knows, when facts
// become common knowledge, why eventual common knowledge is the wrong
// tool, and what continual common knowledge (C□) adds.
package main

import (
	"fmt"
	"log"

	eba "github.com/eventual-agreement/eba"
)

func main() {
	const n, t, h = 3, 1, 3
	sys, err := eba.NewSystem(eba.Params{N: n, T: t}, eba.Crash, h, 0)
	if err != nil {
		log.Fatal(err)
	}
	e := eba.NewEvaluator(sys)
	nf := eba.Nonfaulty()

	// Pick the failure-free run with configuration 011.
	ff := eba.FailureFree(eba.Crash, n, h)
	run, ok := sys.FindRun(eba.ConfigFromBits(n, 0b110), ff.Key())
	if !ok {
		log.Fatal("run not found")
	}
	fmt.Printf("run: config %s, failure-free, horizon %d\n\n", run.Config(), h)

	// Knowledge of ∃0 spreads in one round.
	for m := eba.Round(0); m <= 1; m++ {
		pt := eba.Point{Run: run.Index, Time: m}
		fmt.Printf("time %d:\n", m)
		for i := eba.ProcID(0); i < n; i++ {
			fmt.Printf("  K_%d ∃0 = %-5v   view: %s\n",
				i, e.Holds(eba.K(i, eba.Exists0()), pt),
				sys.Interner.String(sys.ViewAt(pt, i)))
		}
	}

	// Common knowledge needs t+1 rounds; continual common knowledge
	// of ∃0 is unattainable (reachability escapes through time 0).
	fmt.Println("\ncommon knowledge of ∃0 along the run:")
	for m := eba.Round(0); m <= h; m++ {
		pt := eba.Point{Run: run.Index, Time: m}
		fmt.Printf("  t=%d: E_𝒩 ∃0 = %-5v  C_𝒩 ∃0 = %-5v  C□_𝒩 ∃0 = %v\n",
			m,
			e.Holds(eba.E(nf, eba.Exists0()), pt),
			e.Holds(eba.C(nf, eba.Exists0()), pt),
			e.Holds(eba.CBox(nf, eba.Exists0()), pt))
	}

	// The implication C□ ⇒ C is valid; the converse is not.
	fmt.Println("\noperator strength (valid in the whole system?):")
	fmt.Printf("  C□ ⇒ C : %v\n", e.Valid(eba.Implies(eba.CBox(nf, eba.Exists0()), eba.C(nf, eba.Exists0()))))
	fmt.Printf("  C ⇒ C□ : %v\n", e.Valid(eba.Implies(eba.C(nf, eba.Exists0()), eba.CBox(nf, eba.Exists0()))))

	// Where C□ really matters: relative to the nonrigid set
	// 𝒩 ∧ 𝒪 of a decision pair. For the optimal pair, the paper's
	// Theorem 5.3 conditions hold; we show one instance concretely.
	opt := eba.TwoStep(e, eba.NeverDecide())
	nAndO := eba.NAnd(opt.O)
	cond := eba.Implies(
		eba.B(0, nf, eba.And(eba.Exists0(), eba.CBox(nAndO, eba.Exists0()))),
		eba.K(0, eba.Or(eba.Exists0(), eba.Exists1())), // trivially true consequence
	)
	fmt.Printf("\nsample Theorem 5.3-style formula valid: %v\n", e.Valid(cond))
	ok5, _ := eba.IsOptimal(e, opt)
	fmt.Printf("TwoStep(FΛ) passes the full Theorem 5.3 oracle: %v\n", ok5)

	// Decision sets as knowledge: where does the optimum decide?
	fmt.Println("\ndecisions of the optimum along the run:")
	for m := eba.Round(0); m <= h; m++ {
		for i := eba.ProcID(0); i < n; i++ {
			if v, at, ok := eba.DecisionAt(sys, opt, run, i); ok && at == m {
				fmt.Printf("  proc %d decides %s at time %d\n", i, v, at)
			}
		}
	}
}
