package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata goldens and BENCHMARK.json from the current tree")

func buildSystem(t *testing.T, k Key) *system.System {
	t.Helper()
	sk, err := k.storeKey()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.Enumerate(types.Params{N: k.N, T: k.T}, sk.Mode, k.H, sk.Limit)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestUpdateGoldens regenerates every golden when run with -update:
// ebacheck's stdout per key from the real binary, and the answer
// table from the production evaluator. Without the flag it is a no-op;
// TestGoldensAgainstReference is what keeps the table honest.
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate")
	}
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := Build(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var rows []Answer
	for _, k := range AllKeys {
		run, err := bins.runEbacheck(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "ebacheck", k.Slug()+".golden"), run.Stdout, 0o644); err != nil {
			t.Fatal(err)
		}
		sys := buildSystem(t, k)
		for _, src := range Formulas {
			f, err := knowledge.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			tbl := knowledge.NewEvaluator(sys).Eval(f)
			rows = append(rows, Answer{Key: k.Slug(), Formula: src, Valid: tbl.All(), TruePoints: tbl.Count(), TotalPoints: tbl.Len()})
		}
	}
	if err := writeJSON(filepath.Join("testdata", "queries.json"), rows); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(root, "BENCHMARK.json"), TheManifest()); err != nil {
		t.Fatal(err)
	}
}

// TestGoldensAgainstReference recomputes rows of the answer table
// point by point with the reference evaluator, which shares no code
// with the truth-table evaluator the daemon uses, so the goldens do
// not rest on the evaluator under test alone. The reference runs one
// breadth-first search per point for the common-knowledge operators
// (most of a second per formula on a thousand points, minutes on ten
// thousand), so two of those formulas — between them C, C□ and E — are
// checked on the smallest system and the cheap formulas on every n=3
// key. It has no C◇ at all (a greatest fixed point has no pointwise
// form); that row is not checked here.
var slowRows = map[string]bool{"C E0 -> Cbox E0": true, "E E0 -> Cbox E0": true}

func TestGoldensAgainstReference(t *testing.T) {
	t.Parallel()
	g, err := LoadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, k := range AllKeys {
		if !k.small() {
			continue
		}
		sys := buildSystem(t, k)
		for _, src := range Formulas {
			if strings.Contains(src, "Cdia") || (strings.Contains(src, "C") && (k != keyCr313 || !slowRows[src])) {
				continue
			}
			f, err := knowledge.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			trueAt := 0
			sys.ForEachPoint(func(pt system.Point) {
				if knowledge.RefHolds(sys, f, pt) {
					trueAt++
				}
			})
			want := g.Answer(k, src)
			got := Answer{Key: k.Slug(), Formula: src, Valid: trueAt == sys.NumPoints(), TruePoints: trueAt, TotalPoints: sys.NumPoints()}
			if got != want {
				t.Errorf("%q on %s: reference evaluator says %+v, golden says %+v", src, k.Slug(), got, want)
			}
			checked++
		}
	}
	// Three cheap formulas on four keys, two more on the smallest.
	if checked != 14 {
		t.Fatalf("cross-checked %d golden rows, expected 14", checked)
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json equal to the metric and
// workload tables in spec.go, and its names inside the contract's
// alphabet.
func TestManifestMatchesCode(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := TheManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go (go test ./internal/bench -run TestUpdateGoldens -update rewrites it)\n got %+v\nwant %+v", got, want)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), got.EndToEnd...), got.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q lacks a unit or a direction", m.Name)
		}
		seen[m.Name] = true
	}
}
