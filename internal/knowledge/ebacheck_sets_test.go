package knowledge_test

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// TestEbacheckSetsMatchViewWalk runs ebacheck's verdict pipeline on
// omission-n4-t2-h2 — Chain0, F* and TwoStep(FΛ), each asked for
// Theorem 5.3 optimality — and holds the C□ components of each of the
// seven sets it builds a frontier for to the view-index walk.
func TestEbacheckSetsMatchViewWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the n=4 t=2 omission system")
	}
	sys, err := system.Enumerate(types.Params{N: 4, T: 2}, failures.Omission, 2, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	e := knowledge.NewEvaluator(sys)
	chain := protocols.Chain0SemanticPair(e)
	never := fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
	for _, p := range []fip.Pair{chain, core.PrimeStep(e, chain, "F*"), core.TwoStep(e, never)} {
		core.IsOptimal(e, p)
	}
	checked, err := knowledge.FrontiersMatchViewWalk(e)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 7 {
		t.Fatalf("checked %d sets, want ebacheck's 7", checked)
	}
}
