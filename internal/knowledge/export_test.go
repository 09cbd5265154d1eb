package knowledge

import "fmt"

// FrontiersMatchViewWalk checks the C□ components of every distinct set
// e has built a frontier for — building them where e has not — against
// the view-index walk, and returns how many sets it checked.
func FrontiersMatchViewWalk(e *Evaluator) (int, error) {
	checked := 0
	for _, fr := range e.byContent {
		checked++
		if err := runMismatch(e, fr); err != nil {
			return checked, fmt.Errorf("set %d: %v", checked, err)
		}
	}
	return checked, nil
}

// NaiveCDiamond is the definitional downward iteration the C◇ worklist
// replaced, kept as its oracle: X_0 = ⊤ and X_{k+1} = E◇_S(f ∧ X_k),
// each round a full E◇_S over every point, until a round changes
// nothing. It returns the table and the number of rounds, that last one
// included.
func NaiveCDiamond(e *Evaluator, s NonrigidSet, f Formula) (*Bits, int) {
	ft := e.Eval(f)
	x := NewBits(e.sys.NumPoints())
	x.Fill(true)
	for rounds := 1; ; rounds++ {
		arg := ft.Clone()
		arg.AndWith(x)
		next := e.evalE(s, arg, true)
		if next.Equal(x) {
			return x, rounds
		}
		x = next
	}
}
