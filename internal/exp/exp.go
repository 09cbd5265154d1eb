// Package exp implements the reproduction experiments: one entry per
// proposition/theorem of the paper (E1-E13) plus ablations (A1-A3),
// each producing a small table and a pass/fail verdict. The
// experiment set is DESIGN.md's per-experiment index; cmd/ebaexp runs
// them from the command line, bench_test.go wraps them as benchmarks,
// and EXPERIMENTS.md records the measured outcomes.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// Result is one experiment's outcome.
type Result struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being reproduced
	Pass    bool
	Summary string
	Table   *Table
	Elapsed time.Duration
}

// Table is a rendered result table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the result in a fixed-width layout.
func Render(w io.Writer, r *Result) {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "== %s: %s [%s] (%.2fs)\n", r.ID, r.Title, status, r.Elapsed.Seconds())
	fmt.Fprintf(w, "   claim:    %s\n", r.Claim)
	fmt.Fprintf(w, "   measured: %s\n", r.Summary)
	if r.Table != nil {
		renderTable(w, r.Table)
	}
	fmt.Fprintln(w)
}

func renderTable(w io.Writer, t *Table) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprint(w, "   | ")
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s | ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Experiment is a named runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// All returns the full experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "No optimum EBA protocol (Prop 2.1)", E1NoOptimum},
		{"E2", "P0opt strictly dominates P0 (Sec 2.2)", E2Dominance},
		{"E3", "S5 axioms of knowledge (Prop 3.1)", E3S5Axioms},
		{"E4", "Axioms of continual common knowledge (Lemma 3.4)", E4CBoxAxioms},
		{"E5", "C□ strictly stronger than C (Sec 3.3)", E5StrictlyStronger},
		{"E6", "Two-step optimum = P0opt in crash mode (Thms 6.1/6.2)", E6CrashOptimal},
		{"E7", "F^Λ,2 non-termination under omissions (Prop 6.3)", E7OmissionNontermination},
		{"E8", "Chain protocol decides by f+1 (Prop 6.4)", E8ChainBound},
		{"E9", "F* optimal for omissions (Prop 6.6, Lemmas A.10/A.11)", E9OmissionOptimal},
		{"E10", "Theorem 5.3 separates optimal from non-optimal", E10Characterization},
		{"E11", "Worst-case decision takes t+1 rounds (DS82)", E11WorstCase},
		{"E12", "Decision-round distributions on the live runtime", E12Distributions},
		{"E13", "EBA decides before SBA (DRS90 motivation)", E13EBAvsSBA},
		{"E14", "Eventual common knowledge is the wrong tool (Sec 3.2)", E14EventualCK},
		{"E15", "Halting one round after deciding (Sec 2.3)", E15Halting},
		{"E16", "Weak vs uniform agreement (Sec 7)", E16Uniform},
		{"E17", "Byzantine baseline: EIGByz and the 3t+1 bound (PSL80)", E17Byzantine},
		{"E18", "Message sizes: full information vs P0opt (Sec 6.1)", E18MessageSize},
		{"E19", "Multivalued agreement (Sec 2.1 general case)", E19Multivalued},
		{"E20", "DM90 optimum SBA: the concrete waste rule", E20WasteRule},
		{"E21", "General coordination problems (Sec 7)", E21Coordination},
		{"A1", "Ablation: horizon invariance of the construction", A1Horizon},
		{"A2", "Ablation: view interning dedup factor", A2Interning},
		{"A3", "Ablation: C□ reachability vs definitional iteration", A3CBoxAlgorithms},
		{"A4", "Ablation: depth of the E^k conjunction for C", A4ConvergenceDepth},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// timer wraps an experiment body with elapsed-time accounting.
func timer(r *Result, body func() error) (*Result, error) {
	start := time.Now()
	err := body()
	r.Elapsed = time.Since(start)
	return r, err
}

// enumerate builds a system, shared by several experiments.
func enumerate(n, t int, mode failures.Mode, h int) (*system.System, error) {
	return system.Enumerate(types.Params{N: n, T: t}, mode, h, 0)
}

// histRows renders a decision histogram sorted by time.
func histRows(tbl *Table, name string, hist map[types.Round]int) {
	times := make([]int, 0, len(hist))
	for at := range hist {
		times = append(times, int(at))
	}
	sort.Ints(times)
	for _, at := range times {
		label := fmt.Sprintf("%d", at)
		if at < 0 {
			label = "undecided"
		}
		tbl.Add(name, label, fmt.Sprintf("%d", hist[types.Round(at)]))
	}
}

// maxRound formats the result of MaxNonfaultyDecisionRound.
func maxRound(sys *system.System, p fip.Pair) string {
	max, all := core.MaxNonfaultyDecisionRound(sys, p)
	if !all {
		return "undecided"
	}
	return fmt.Sprintf("%d", max)
}
