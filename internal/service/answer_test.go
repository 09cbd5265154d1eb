package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// answerFormulas is the benchmark's query population plus a formula
// that holds everywhere.
var answerFormulas = []string{
	"C E0 -> Cbox E0",
	"Cbox E0 -> C E0",
	"K0 E0",
	"E E0 -> Cbox E0",
	"Cdia E0",
	"B1 E1",
	"C E1 -> Cbox E1",
	"ev K1 E1",
	"true",
}

// answerOf is the part of a response that is a function of the truth
// table alone.
type answerOf struct {
	Valid          bool
	TruePoints     int
	TotalPoints    int
	Counterexample *Counterexample
}

func answerFields(r *Response) answerOf {
	return answerOf{r.Valid, r.TruePoints, r.TotalPoints, r.Counterexample}
}

// TestAnswerSameFromEveryOrigin: a response's verdict, count and
// counterexample are the same whether the answer was just computed,
// read from disk, or found in the memo, and equal what a full scan of
// a freshly evaluated truth table gives.
func TestAnswerSameFromEveryOrigin(t *testing.T) {
	for _, mode := range []string{"crash", "omission", "receiving-omission", "general-omission"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *Engine {
				st, err := store.Open(dir, 4)
				if err != nil {
					t.Fatal(err)
				}
				return NewEngine(st, 0)
			}
			cold, warm := open(), (*Engine)(nil)
			exec := func(eng *Engine, f, wantOrigin string) *Response {
				t.Helper()
				resp, err := eng.ExecuteSync(context.Background(), Request{Formula: f, N: 3, T: 1, Mode: mode, Horizon: 2})
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				if resp.ResultOrigin != wantOrigin {
					t.Fatalf("%s: result origin %s, want %s", f, resp.ResultOrigin, wantOrigin)
				}
				return resp
			}
			byOrigin := map[string][]answerOf{}
			for _, f := range answerFormulas {
				byOrigin["enumerated"] = append(byOrigin["enumerated"], answerFields(exec(cold, f, "enumerated")))
				byOrigin["memory"] = append(byOrigin["memory"], answerFields(exec(cold, f, "memory")))
			}
			warm = open()
			for _, f := range answerFormulas {
				byOrigin["disk"] = append(byOrigin["disk"], answerFields(exec(warm, f, "disk")))
			}
			sawValid, sawInvalid := false, false
			for i, f := range answerFormulas {
				want := byOrigin["enumerated"][i]
				for _, origin := range []string{"memory", "disk"} {
					if got := byOrigin[origin][i]; !reflect.DeepEqual(got, want) {
						t.Errorf("%s from %s: %+v, computed %+v", f, origin, got, want)
					}
				}
				key, pf, err := warm.resolve(Request{Formula: f, N: 3, T: 1, Mode: mode, Horizon: 2})
				if err != nil {
					t.Fatal(err)
				}
				sys, _, err := warm.Store().System(key)
				if err != nil {
					t.Fatal(err)
				}
				tbl := knowledge.NewEvaluator(sys).Eval(pf.f)
				if want.Valid != tbl.All() || want.TruePoints != tbl.Count() || want.TotalPoints != tbl.Len() {
					t.Errorf("%s: answer %+v, table All %v Count %d Len %d", f, want, tbl.All(), tbl.Count(), tbl.Len())
				}
				first := -1
				if want.Counterexample != nil {
					first = want.Counterexample.Point
				}
				if first != tbl.FirstZero() {
					t.Errorf("%s: counterexample point %d, table FirstZero %d", f, first, tbl.FirstZero())
				}
				if cx := want.Counterexample; cx != nil {
					pt := sys.PointAt(cx.Point)
					run := sys.RunOf(pt)
					if cx.Run != run.Index || cx.Time != int(pt.Time) || cx.Config != run.Config().String() || cx.Pattern != run.Pattern().String() {
						t.Errorf("%s: counterexample %+v does not describe point %d", f, cx, cx.Point)
					}
				}
				sawValid = sawValid || want.Valid
				sawInvalid = sawInvalid || !want.Valid
			}
			if !sawValid || !sawInvalid {
				t.Fatalf("population is not mixed: valid %v invalid %v", sawValid, sawInvalid)
			}
		})
	}
}

// TestVersion1ResultFileRecomputed: a result file of the envelope's
// first version (formula and packed truth table) or second (the same
// plus the witness run's configuration and pattern), at the
// <hash>.bits name those builds gave it, is a foreign build's. The
// first request over it computes the answer and files it under this
// build's name, the next reads that file, and the old file stays byte
// for byte as it was.
func TestVersion1ResultFileRecomputed(t *testing.T) {
	dir := t.TempDir()
	req := Request{Formula: "C E0 -> Cbox E0", N: 3, T: 1, Mode: "omission", Horizon: 2}
	exec := func() *Response {
		t.Helper()
		st, err := store.Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := NewEngine(st, 0).ExecuteSync(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	want := exec()
	cx := want.Counterexample
	if want.ResultOrigin != "enumerated" || cx == nil {
		t.Fatalf("first request: origin %s, counterexample %v; want a computed, falsified answer", want.ResultOrigin, cx)
	}
	files, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.bits"))
	if err != nil || len(files) != 1 {
		t.Fatalf("result files %v (%v), want one", files, err)
	}
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	key, pf, err := NewEngine(st, 0).resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := st.System(key)
	if err != nil {
		t.Fatal(err)
	}
	// The table as those versions packed it: its length, then
	// little-endian 64-bit words.
	tbl := knowledge.NewEvaluator(sys).Eval(pf.f)
	words := make([]uint64, (tbl.Len()+63)/64)
	for i := range tbl.Len() {
		if tbl.Get(i) {
			words[i/64] |= 1 << (i % 64)
		}
	}
	packed := binary.AppendUvarint(nil, uint64(tbl.Len()))
	for _, w := range words {
		packed = binary.LittleEndian.AppendUint64(packed, w)
	}
	for _, old := range []struct {
		version byte
		fields  []string
	}{
		{1, []string{pf.canonical, string(packed)}},
		{2, []string{pf.canonical, string(packed), cx.Config, cx.Pattern}},
	} {
		t.Run(fmt.Sprintf("version-%d", old.version), func(t *testing.T) {
			blob := append([]byte("EBABITS"), old.version)
			for _, field := range old.fields {
				blob = binary.AppendUvarint(blob, uint64(len(field)))
				blob = append(blob, field...)
			}
			sum := sha256.Sum256(blob)
			blob = append(blob, sum[:]...)
			oldPath := strings.TrimSuffix(files[0], ".v3.bits") + ".bits"
			if err := os.WriteFile(oldPath, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(files[0]); err != nil {
				t.Fatal(err)
			}
			for i, origin := range []string{"enumerated", "disk"} {
				got := exec()
				if got.ResultOrigin != origin {
					t.Fatalf("request %d over the old result file: origin %s, want %s", i, got.ResultOrigin, origin)
				}
				if !reflect.DeepEqual(answerFields(got), answerFields(want)) {
					t.Fatalf("request %d: %+v, want %+v", i, answerFields(got), answerFields(want))
				}
				after, err := os.ReadFile(oldPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, blob) {
					t.Fatalf("request %d rewrote the old result file", i)
				}
			}
		})
	}
}

// TestBatchOfMemoryHits runs one 512-item batch of identical memory
// hits through the worker pool; run with -race.
func TestBatchOfMemoryHits(t *testing.T) {
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewEngine(st, 0))
	req := Request{Formula: "C E0 -> Cbox E0"}
	want := srv.ExecuteBatch(context.Background(), []Request{req})[0]
	if want.Response == nil {
		t.Fatalf("warm-up: %s", want.Error)
	}
	reqs := make([]Request, 512)
	for i := range reqs {
		reqs[i] = req
	}
	for i, it := range srv.ExecuteBatch(context.Background(), reqs) {
		if it.Response == nil {
			t.Fatalf("item %d: %s", i, it.Error)
		}
		if it.Response.ResultOrigin != "memory" || !reflect.DeepEqual(answerFields(it.Response), answerFields(want.Response)) {
			t.Fatalf("item %d: origin %s answer %+v, want memory %+v", i, it.Response.ResultOrigin,
				answerFields(it.Response), answerFields(want.Response))
		}
	}
	if st := st.Stats(); st.ResultComputes != 1 || st.ResultMemoryHits != 512 {
		t.Fatalf("stats %+v, want 1 compute and 512 memory hits", st)
	}
}

// TestMemoryHitAllocations bounds what a memory hit allocates, with
// the trace ring off and on: the response, its counterexample and its
// provenance, plus the spans when tracing. It renders no counterexample
// text and never copies or scans the table.
func TestMemoryHitAllocations(t *testing.T) {
	st, err := store.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st, 0)
	req := Request{Formula: "C E0 -> Cbox E0"}
	if _, err := eng.ExecuteSync(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	old := telemetry.DefaultRing()
	t.Cleanup(func() {
		if old != nil {
			telemetry.SetRing(old.Cap())
		} else {
			telemetry.SetRing(0)
		}
	})
	for _, tc := range []struct {
		ring   int
		budget float64
	}{{0, memoryHitAllocs}, {1024, memoryHitAllocsTraced}} {
		telemetry.SetRing(tc.ring)
		got := testing.AllocsPerRun(200, func() {
			if _, err := eng.ExecuteSync(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("ring %d: memory hit allocates %.0f times, budget %.0f", tc.ring, got, tc.budget)
		}
	}
}

// BenchmarkExecuteSyncMemoryHit prices one memory hit on the smallest
// and the largest benchmark key. With the answer memoized the two
// should cost about the same: nothing on the hit path scales with the
// table.
func BenchmarkExecuteSyncMemoryHit(b *testing.B) {
	for _, req := range []Request{
		{Formula: "C E0 -> Cbox E0", N: 3, T: 1, Mode: "receiving-omission", Horizon: 2},
		{Formula: "C E0 -> Cbox E0", N: 4, T: 2, Mode: "omission", Horizon: 2},
	} {
		st, err := store.Open("", 1)
		if err != nil {
			b.Fatal(err)
		}
		eng := NewEngine(st, 0)
		resp, err := eng.ExecuteSync(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(resp.Provenance.Key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ExecuteSync(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Allocation budgets of one memory hit with a counterexample, as
// measured on go1.24 (the code before the memoized answer made 17 and
// 57; before spans were kept raw until read, the traced hit made 28).
// Traced, the five engine allocations gain one per span and the
// minted trace ID.
const (
	memoryHitAllocs       = 5
	memoryHitAllocsTraced = 10
)
