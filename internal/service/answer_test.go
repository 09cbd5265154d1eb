package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
// counterexample are the same whether the table was just computed,
// read from disk, or found in the memo, and equal what a full scan of
// the table gives.
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
				tbl, origin, err := warm.Store().Result(key, pf.canonical, nil)
				if err != nil || origin != store.OriginMemory {
					t.Fatalf("%s: table origin %v err %v, want memory", f, origin, err)
				}
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
					sys, _, err := warm.Store().System(key)
					if err != nil {
						t.Fatal(err)
					}
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
// first version (formula and table, no witness) reads as a foreign
// build's. A request over it recomputes the table and leaves the file
// byte for byte as it was.
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
	if want.ResultOrigin != "enumerated" || want.Counterexample == nil {
		t.Fatalf("first request: origin %s, counterexample %v; want a computed, falsified table", want.ResultOrigin, want.Counterexample)
	}
	files, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.bits"))
	if err != nil || len(files) != 1 {
		t.Fatalf("result files %v (%v), want one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("EBABITS"), 1)
	for _, field := range [][]byte{[]byte(r.Formula), r.Table} {
		v1 = binary.AppendUvarint(v1, uint64(len(field)))
		v1 = append(v1, field...)
	}
	sum := sha256.Sum256(v1)
	v1 = append(v1, sum[:]...)
	if err := os.WriteFile(files[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		got := exec()
		if got.ResultOrigin != "enumerated" {
			t.Fatalf("request %d over a version-1 result file: origin %s, want enumerated", i, got.ResultOrigin)
		}
		if !reflect.DeepEqual(answerFields(got), answerFields(want)) {
			t.Fatalf("request %d: %+v, want %+v", i, answerFields(got), answerFields(want))
		}
		after, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, v1) {
			t.Fatalf("request %d rewrote the version-1 result file", i)
		}
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
