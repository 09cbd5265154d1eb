package eba_test

import (
	"fmt"

	eba "github.com/eventual-agreement/eba"
)

// ExampleTwoStep derives the optimal crash-mode protocol from the
// never-deciding one and verifies it with the Theorem 5.3 oracle.
func ExampleTwoStep() {
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Crash, 3, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	e := eba.NewEvaluator(sys)
	opt := eba.TwoStep(e, eba.NeverDecide())
	ok, _ := eba.IsOptimal(e, opt)
	equal, _ := eba.EqualOnNonfaulty(sys, opt, eba.P0OptPair())
	fmt.Println("optimal:", ok)
	fmt.Println("equals P0opt:", equal)
	// Output:
	// optimal: true
	// equals P0opt: true
}

// ExampleRun runs the concrete P0opt protocol on the round engine
// under an injected crash.
func ExampleRun() {
	params := eba.Params{N: 3, T: 1}
	cfg := eba.ConfigFromBits(3, 0b110) // processor 0 holds the only 0
	pat := eba.Silent(eba.Crash, 3, 3, 2, 2)
	tr, err := eba.Run(eba.P0Opt(), params, cfg, pat)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, d := range tr.Decisions() {
		fmt.Println(d)
	}
	// Output:
	// proc 0 decides 0 at time 0
	// proc 1 decides 0 at time 1
	// proc 2 decides 0 at time 1
}

// ExampleCBox evaluates continual common knowledge — the paper's new
// operator — and contrasts it with ordinary common knowledge.
func ExampleCBox() {
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Crash, 2, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	e := eba.NewEvaluator(sys)
	nf := eba.Nonfaulty()
	fmt.Println("C□ ⇒ C valid:", e.Valid(eba.Implies(eba.CBox(nf, eba.Exists1()), eba.C(nf, eba.Exists1()))))
	fmt.Println("C ⇒ C□ valid:", e.Valid(eba.Implies(eba.C(nf, eba.Exists1()), eba.CBox(nf, eba.Exists1()))))
	// Output:
	// C□ ⇒ C valid: true
	// C ⇒ C□ valid: false
}
