package exp

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
)

// TestAllExperimentsPass runs the complete harness; every experiment
// must report PASS. This is the repository's "reproduce the paper"
// test. Heavy experiments are skipped under -short.
func TestAllExperimentsPass(t *testing.T) {
	heavy := map[string]bool{"E7": true, "E12": true, "E13": true}
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			if testing.Short() && heavy[ex.ID] {
				t.Skipf("%s is heavy; run without -short", ex.ID)
			}
			res, err := ex.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Pass {
				var buf bytes.Buffer
				Render(&buf, res)
				t.Fatalf("experiment failed:\n%s", buf.String())
			}
			if res.ID != ex.ID {
				t.Fatalf("result ID %q != registry ID %q", res.ID, ex.ID)
			}
			if res.Elapsed <= 0 {
				t.Fatal("elapsed not recorded")
			}
		})
	}
}

// TestClaimsRegistry pins the registry's shape: unique IDs, each naming
// an experiment of All() that runs it, a paper reference, at least one
// mode, and a reason wherever the claim does not apply.
func TestClaimsRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, c := range Claims() {
		if ids[c.ID] {
			t.Errorf("duplicate claim ID %q", c.ID)
		}
		ids[c.ID] = true
		if e, _, ok := strings.Cut(c.ID, "/"); !ok {
			t.Errorf("claim ID %q lacks an experiment prefix", c.ID)
		} else if _, ok := Find(e); !ok {
			t.Errorf("claim %q names no experiment", c.ID)
		}
		if c.Paper == "" || len(c.Modes) == 0 || c.Check == nil {
			t.Errorf("claim %q: paper %q, modes %v, check set %v", c.ID, c.Paper, c.Modes, c.Check != nil)
		}
		for _, m := range failures.Modes {
			for n := 2; n <= 5; n++ {
				for tt := 0; tt < n; tt++ {
					for h := 1; h <= 4; h++ {
						k := Key{m, n, tt, h}
						applies := c.NA(k) == ""
						if !applies && strings.TrimSpace(c.NA(k)) == "" {
							t.Errorf("claim %q at %+v: n/a without a reason", c.ID, k)
						}
						if applies && !slices.Contains(c.Modes, m) {
							t.Errorf("claim %q applies at %+v, outside its modes %v (NotIn is empty)", c.ID, k, c.Modes)
						}
					}
				}
			}
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("e6"); !ok {
		t.Fatal("case-insensitive Find failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("unknown ID found")
	}
}

func TestRender(t *testing.T) {
	res := &Result{ID: "X", Title: "demo", Claim: "c", Pass: false, Summary: "s",
		Table: &Table{Header: []string{"a", "bb"}}}
	res.Table.Add("1", "2")
	var buf bytes.Buffer
	Render(&buf, res)
	out := buf.String()
	for _, want := range []string{"FAIL", "demo", "claim:", "| a ", "| 1 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}
