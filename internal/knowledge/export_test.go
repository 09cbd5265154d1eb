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
