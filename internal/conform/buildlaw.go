package conform

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// buildLaw is build:prefix-vs-perrun, the differential pin of the
// prefix-sharing system builder: the system every binary builds must
// equal — view ID for view ID, and so snapshot digest for snapshot
// digest — the one views.BuildRun builds run by run over the same
// pattern list into a fresh interner. The per-run build shares no
// code with the builder beyond the interner.
//
// Under MutantPrefix the system under test is built as a builder whose
// prefix keys lacked their receive-omission half would build it: rows
// are shared between patterns that differ only in what their faulty
// processors fail to receive. Any scenario with a visible receive drop
// must catch it.
func buildLaw(sc Scenario, seq *system.System, mutant string) (vs []Violation, checks int) {
	const law = "build:prefix-vs-perrun"
	key, tbl := sc.Key(), seq.Table()
	built := seq
	if mutant == MutantPrefix {
		blind := make([]*failures.Pattern, len(tbl.Patterns))
		for i, p := range tbl.Patterns {
			blind[i] = stripRecv(p)
		}
		var err error
		if built, err = system.FromPatterns(sc.Params(), sc.Mode, sc.Horizon, blind); err != nil {
			return []Violation{violationOf(sc, "law", law, "building the mutant system: "+err.Error())}, 1
		}
	}

	in := views.NewInterner(sc.N)
	want := make([]views.ID, 0, len(tbl.Views))
	for r, pi := range tbl.PatternOf {
		for _, row := range views.BuildRun(in, types.ConfigFromBits(sc.N, tbl.ConfigOf[r]), tbl.Patterns[pi]) {
			want = append(want, row...)
		}
	}

	checks++
	got := built.Table().Views
	if len(got) != len(want) || built.Interner.Size() != in.Size() {
		return []Violation{violationOf(sc, "law", law, fmt.Sprintf("built system has %d views (%d distinct), the per-run build %d (%d distinct)",
			len(got), built.Interner.Size(), len(want), in.Size()))}, checks
	}
	for i, id := range want {
		if got[i] != id {
			run := seq.Run(i / ((sc.Horizon + 1) * sc.N))
			return []Violation{violationOf(sc, "law", law, fmt.Sprintf("run %d (cfg %s, %s) time %d processor %d: built view %d, per-run view %d",
				run.Index, run.Config(), run.Pattern(), i/sc.N%(sc.Horizon+1), i%sc.N, got[i], id))}, checks
		}
	}

	checks++
	ref, err := system.Reassemble(sc.Params(), sc.Mode, sc.Horizon, in, system.RunTable{
		Patterns: tbl.Patterns, PatternOf: tbl.PatternOf, ConfigOf: tbl.ConfigOf, Views: want,
	})
	if err != nil {
		return []Violation{violationOf(sc, "law", law, "assembling the per-run system: "+err.Error())}, checks
	}
	builtBytes, err1 := store.EncodeSystem(key, built)
	refBytes, err2 := store.EncodeSystem(key, ref)
	if err1 != nil || err2 != nil {
		return []Violation{violationOf(sc, "law", law, fmt.Sprintf("encoding: built: %v, per-run: %v", err1, err2))}, checks
	}
	if store.Digest(builtBytes) != store.Digest(refBytes) {
		return []Violation{violationOf(sc, "law", law, fmt.Sprintf("built snapshot digest %s != per-run snapshot digest %s",
			store.Digest(builtBytes), store.Digest(refBytes)))}, checks
	}
	return nil, checks
}
