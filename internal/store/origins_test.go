package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/eventual-agreement/eba/internal/bench"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
)

// TestAnswerOriginsAgree: every benchmark formula over every benchmark
// key has one answer, whichever of four origins gives it: a compute,
// the memo, a result file read by an entry restored undecoded, and a
// result file read after a fresh store's full decode. The last two
// build the answer from the file alone, so this is what holds the
// file's count, first falsifying point and witness text to the
// system's. A result file holds no truth table, so each stays under
// 512 bytes whatever the system's size.
func TestAnswerOriginsAgree(t *testing.T) {
	ctx := context.Background()
	for _, key := range benchKeys(t) {
		t.Run(key.Slug(), func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 1)
			type answered struct {
				origin string
				ans    *store.Answer
			}
			got := make([][]answered, len(bench.Formulas))
			ask := func(s *store.Store, label string, want store.Origin) {
				t.Helper()
				for i, f := range bench.Formulas {
					ans, origin, err := s.AnswerCtx(ctx, key, f, compute(t, f))
					if err != nil || origin != want {
						t.Fatalf("%s, %q: origin %v, %v; want %v", label, f, origin, err, want)
					}
					got[i] = append(got[i], answered{label, ans})
				}
			}
			ask(s, "compute", store.OriginEnumerated)
			files, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.bits"))
			if err != nil || len(files) != len(bench.Formulas) {
				t.Fatalf("result files %v (%v), want one per formula", files, err)
			}
			for _, f := range files {
				fi, err := os.Stat(f)
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() >= 512 {
					t.Fatalf("result file %s is %d bytes, want under 512", f, fi.Size())
				}
			}
			ask(s, "memory", store.OriginMemory)
			// Another key evicts this one; its restore then admits the
			// snapshot, which this store wrote, undecoded.
			if _, _, err := s.System(store.Key{N: 2, T: 1, Mode: failures.Crash, Horizon: 2}); err != nil {
				t.Fatal(err)
			}
			if _, origin, err := s.Resident(ctx, key); err != nil || origin != store.OriginDisk {
				t.Fatalf("restore: origin %v, %v", origin, err)
			}
			decodes := s.Stats().SystemDecodes
			ask(s, "lazy entry's result file", store.OriginDisk)
			if d := s.Stats().SystemDecodes; d != decodes {
				t.Fatalf("answering from result files decoded the system %d times", d-decodes)
			}
			fresh := open(t, dir, 1)
			if _, origin, err := fresh.System(key); err != nil || origin != store.OriginDisk {
				t.Fatalf("fresh restore: origin %v, %v", origin, err)
			}
			ask(fresh, "decoded entry's result file", store.OriginDisk)

			for i, f := range bench.Formulas {
				want := got[i][0].ans
				for _, g := range got[i][1:] {
					if g.ans.True != want.True || g.ans.First != want.First || !reflect.DeepEqual(g.ans.Witness, want.Witness) {
						t.Errorf("%q from the %s: %d true, first %d, witness %+v; computed %d, %d, %+v",
							f, g.origin, g.ans.True, g.ans.First, g.ans.Witness, want.True, want.First, want.Witness)
					}
				}
			}
		})
	}
}

// benchKeys is bench.AllKeys as the daemon files a request for each.
func benchKeys(t *testing.T) []store.Key {
	var keys []store.Key
	for _, k := range bench.AllKeys {
		mode, err := failures.ParseMode(k.Mode)
		if err != nil {
			t.Fatal(err)
		}
		sk := store.Key{N: k.N, T: k.T, Mode: mode, Horizon: k.H}
		if mode != failures.Crash {
			sk.Limit = service.DefaultOmissionLimit
		}
		keys = append(keys, sk)
	}
	return keys
}

var update = flag.Bool("update", false, "write the verdict golden of this build's result version when it has none")

// verdict is one row of the verdict golden: what a result file records
// of a formula's answer over a key, but for the witness text.
type verdict struct {
	Key     string `json:"key"`
	Formula string `json:"formula"`
	True    int    `json:"true"`
	First   int    `json:"first"`
}

// TestVerdictGolden holds the verdict of each benchmark formula over
// each n = 3 benchmark key to testdata/verdicts.v<resultVersion>.json.
// A result file is named by its formula and the digest of the system,
// which an evaluator change does not move, so a change that moves a
// verdict must bump resultVersion, or the files written before it go
// on serving the old verdicts: this test fails until it does. -update
// writes the golden of a version that has none and never rewrites one.
func TestVerdictGolden(t *testing.T) {
	ctx := context.Background()
	s := open(t, "", 1)
	var got []verdict
	for _, key := range benchKeys(t) {
		if key.N != 3 {
			continue
		}
		for _, f := range bench.Formulas {
			ans, _, err := s.AnswerCtx(ctx, key, f, compute(t, f))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, verdict{key.Slug(), f, ans.True, ans.First})
		}
	}
	path := filepath.Join("testdata", fmt.Sprintf("verdicts.v%d.json", store.ResultVersion))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) && *update {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (a new result version's golden is written with -update)", err)
	}
	var want []verdict
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts moved under result version %d: bump resultVersion and write the new version's golden with -update\n got %+v\nwant %+v",
			store.ResultVersion, got, want)
	}
}

func open(t *testing.T, dir string, maxMem int) *store.Store {
	t.Helper()
	s, err := store.Open(dir, maxMem)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compute(t *testing.T, formula string) func(*system.System) (*knowledge.Bits, error) {
	f, err := knowledge.Parse(formula)
	if err != nil {
		t.Fatal(err)
	}
	return func(sys *system.System) (*knowledge.Bits, error) {
		return knowledge.NewEvaluator(sys).Eval(f), nil
	}
}
