// Package exp implements the reproduction experiments: one entry per
// proposition/theorem of the paper (E1-E21) plus ablations (A1-A4),
// each producing a small table and a pass/fail verdict. Every paper
// claim about a single enumerated system is a Claim in one registry
// (Claims); the experiments that consist of such claims are views that
// run them at the paper's sizes in all four failure modes, and
// internal/conform runs the same claims on its random systems. The
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

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
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
	crash := func(n, t, h int) Key { return Key{Mode: failures.Crash, N: n, T: t, H: h} }
	return []Experiment{
		view("E1", "No optimum EBA protocol (Prop 2.1)",
			"P0 and P1 are incomparable; an optimum would decide everything at time 0, impossible", crash(4, 1, 3)),
		view("E2", "P0opt strictly dominates P0 (Sec 2.2)",
			"P0opt decides 1 as soon as possible without changing P0's rule for 0", crash(4, 1, 3), crash(4, 2, 4)),
		view("E3", "S5 axioms of knowledge (Prop 3.1)", "K_i satisfies the S5 properties in every system"),
		view("E4", "Axioms of continual common knowledge (Lemma 3.4)",
			"C□_S satisfies K45, the fixed-point axiom, and □̂-invariance"),
		view("E5", "C□ strictly stronger than C (Sec 3.3)", "C□_𝒩 φ ⇒ C_𝒩 φ is valid; the converse fails"),
		view("E6", "Two-step optimum = P0opt in crash mode (Thms 6.1/6.2)",
			"F^Λ,2 = FIP(𝒵^cr, 𝒪^cr) ≡ P0opt where t ≤ 1 < n−1 (crash); F^Λ,2 is an optimal EBA protocol in every mode",
			crash(4, 1, 3), crash(5, 1, 3)),
		{"E7", "F^Λ,2 non-termination under omissions (Prop 6.3)", E7OmissionNontermination},
		{"E8", "Chain protocol decides by f+1 (Prop 6.4)", E8ChainBound},
		view("E9", "F* optimal for omissions (Prop 6.6, Lemmas A.10/A.11)",
			"F* = FIP(𝒵*, 𝒪*) is an optimal EBA protocol dominating FIP(𝒵⁰, 𝒪⁰)"),
		view("E10", "Theorem 5.3 separates optimal from non-optimal",
			"the characterization holds exactly for optimal protocols"),
		view("E11", "Worst-case decision takes t+1 rounds (DS82)",
			"with sending faults the last nonfaulty decision over all runs is at t+1; without them, at 1"),
		{"E12", "Decision-round distributions at larger n", E12Distributions},
		{"E13", "EBA decides before SBA (DRS90 motivation)", E13EBAvsSBA},
		view("E14", "Eventual common knowledge is the wrong tool (Sec 3.2)",
			"F0 is nontrivial agreement but far from optimal; C◇-beliefs of 0 and 1 coexist"),
		{"E15", "Halting one round after deciding (Sec 2.3)", E15Halting},
		view("E16", "Weak vs uniform agreement (Sec 7)",
			"the paper's EBA protocols satisfy weak but not uniform agreement; simultaneity restores uniformity"),
		{"E17", "Byzantine baseline: EIGByz and the 3t+1 bound (PSL80)", E17Byzantine},
		{"E18", "Message sizes: full information vs P0opt (Sec 6.1)", E18MessageSize},
		{"E19", "Multivalued agreement (Sec 2.1 general case)", E19Multivalued},
		view("E20", "DM90 optimum SBA: the concrete waste rule",
			"decide at min_k (k + t+1 − N(k)); equals the common-knowledge rule run for run", crash(4, 1, 3), crash(4, 2, 4)),
		view("E21", "General coordination problems (Sec 7)",
			"the construction and Thm 5.3 oracle generalize over enabling facts"),
		{"A1", "Ablation: horizon invariance of the construction", A1Horizon},
		{"A2", "Ablation: view interning dedup factor", A2Interning},
		view("A3", "Ablation: C□ reachability vs definitional iteration",
			"Corollary 3.3's reachability computation equals the definitional iteration X_{k+1} = E□(φ ∧ X_k)"),
		{"A4", "Ablation: depth of the E^k conjunction for C", A4ConvergenceDepth},
	}
}

// view is a registry-backed experiment: it runs the claims whose ID
// starts with id at n=3 t=1, h=2 and h=3, in every mode, and at the
// extra keys, and renders one row per (claim, mode, size).
func view(id, title, claim string, extra ...Key) Experiment {
	return Experiment{ID: id, Title: title, Run: func() (*Result, error) {
		r := &Result{ID: id, Title: title, Claim: claim}
		return timer(r, func() error {
			var keys []Key
			for _, m := range failures.Modes {
				keys = append(keys, Key{m, 3, 1, 2}, Key{m, 3, 1, 3})
				for _, k := range extra {
					if k.Mode == m {
						keys = append(keys, k)
					}
				}
			}
			cs := claimsOf(id)
			cells := make([][]string, len(cs))
			count := map[string]int{}
			for _, k := range keys {
				var ev *knowledge.Evaluator
				for i, c := range cs {
					res := "pass"
					if why := c.NA(k); why != "" {
						res = "n/a: " + why
					} else {
						if ev == nil {
							sys, err := enumerate(k.N, k.T, k.Mode, k.H)
							if err != nil {
								return err
							}
							ev = knowledge.NewEvaluator(sys)
						}
						if err := c.Check(ev.System(), ev); err != nil {
							res = "FAIL: " + err.Error()
						}
					}
					cells[i] = append(cells[i], res)
					count[strings.SplitN(res, ":", 2)[0]]++
				}
			}
			r.Table = &Table{Header: []string{"claim", "paper", "mode", "size", "result"}}
			for i, c := range cs {
				for j, k := range keys {
					r.Table.Add(c.ID, c.Paper, k.Mode.String(), fmt.Sprintf("n=%d t=%d h=%d", k.N, k.T, k.H), cells[i][j])
				}
			}
			r.Pass = count["FAIL"] == 0 && count["pass"] > 0
			r.Summary = fmt.Sprintf("%d pass, %d n/a, %d FAIL: %d claims × %d systems",
				count["pass"], count["n/a"], count["FAIL"], len(cs), len(keys))
			return nil
		})
	}}
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
