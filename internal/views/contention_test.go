package views

import (
	"fmt"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// buildContentionInterner populates an interner with every run of the
// crash-mode n=3 t=1 h=3 adversary over all configurations — enough
// structure that the recursive analyses do real work on shared nodes.
func buildContentionInterner(tb testing.TB) *Interner {
	tb.Helper()
	pats, err := failures.EnumCrash(3, 1, 3)
	if err != nil {
		tb.Fatal(err)
	}
	in := NewInterner(3)
	for _, pat := range pats {
		for mask := uint64(0); mask < 8; mask++ {
			BuildRun(in, types.ConfigFromBits(3, mask), pat)
		}
	}
	return in
}

// TestAnalysesUnderContention hammers the four analyses from
// many goroutines on cold memos, with every goroutine walking the IDs
// in a different order so recursions overlap on shared subviews. Run
// under -race this proves the narrowed memo locking (read-locked
// lookup, unlocked recursion, brief write-locked publish) is sound;
// the results are compared against a sequentially-computed twin
// interner, which also checks that duplicated computation stays
// value-identical.
//
// No interner holds memo tables before its first analysis, so the
// goroutines' first calls also race to size them — on a built interner
// and on one restored from a snapshot, the daemon's case. The
// known-value sets are filled at intern time, so KnownValues reads them
// with no lock while the other three publish their memos.
func TestAnalysesUnderContention(t *testing.T) {
	t.Run("built", func(t *testing.T) {
		testAnalysesUnderContention(t, buildContentionInterner(t))
	})
	t.Run("restored", func(t *testing.T) {
		con, err := UnmarshalInterner(MarshalInterner(buildContentionInterner(t)))
		if err != nil {
			t.Fatal(err)
		}
		testAnalysesUnderContention(t, con)
	})
}

// testAnalysesUnderContention hammers con, on which no analysis has
// run yet.
func testAnalysesUnderContention(t *testing.T, con *Interner) {
	seq := buildContentionInterner(t) // sequential baseline

	if seq.Size() != con.Size() {
		t.Fatalf("twin interners diverge: %d vs %d nodes", seq.Size(), con.Size())
	}
	if con.faultEv != nil || con.faultEvOK != nil ||
		con.acceptSets != nil || con.acceptOK != nil || con.believes0s != nil {
		t.Fatal("interner holds memo tables before its first analysis")
	}
	if len(con.known) != con.Size() {
		t.Fatalf("known-value sets cover %d of %d views before any analysis", len(con.known), con.Size())
	}
	size := con.Size()

	type answers struct {
		known    [][]types.Value
		evidence []types.ProcSet
		accepts  []bool
		believes []bool
	}
	collect := func(in *Interner, lo, hi, stride int, dst *answers) {
		for k := lo; k < hi; k++ {
			// Permuted walk: goroutines meet on shared nodes mid-recursion.
			id := ID((k * stride) % size)
			dst.known[id] = in.KnownValues(id)
			dst.evidence[id] = in.FaultEvidence(id)
			dst.accepts[id] = in.AcceptsZeroAt(id)
			dst.believes[id] = in.BelievesExistsZeroStar(id)
		}
	}
	newAnswers := func() *answers {
		return &answers{
			known:    make([][]types.Value, size),
			evidence: make([]types.ProcSet, size),
			accepts:  make([]bool, size),
			believes: make([]bool, size),
		}
	}

	want := newAnswers()
	collect(seq, 0, size, 1, want)

	// Coprime strides w.r.t. any size guarantee full coverage per
	// goroutine while maximizing overlap disorder.
	strides := []int{1, 3, 5, 7, 11, 13, 17, 19}
	got := make([]*answers, len(strides))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g, stride := range strides {
		if gcd(stride, size) != 1 {
			stride = 1
		}
		got[g] = newAnswers()
		wg.Add(1)
		go func(g, stride int) {
			defer wg.Done()
			<-start
			collect(con, 0, size, stride, got[g])
		}(g, stride)
	}
	close(start)
	wg.Wait()
	if len(con.faultEv) != size || len(con.acceptOK) != size || len(con.believes0s) != size {
		t.Fatalf("memo tables cover %d, %d and %d of %d views after every analysis ran",
			len(con.faultEv), len(con.acceptOK), len(con.believes0s), size)
	}

	for g := range got {
		for id := 0; id < size; id++ {
			if fmt.Sprint(got[g].known[id]) != fmt.Sprint(want.known[id]) {
				t.Fatalf("goroutine %d: KnownValues(%d) = %v, want %v", g, id, got[g].known[id], want.known[id])
			}
			if got[g].evidence[id] != want.evidence[id] {
				t.Fatalf("goroutine %d: FaultEvidence(%d) = %v, want %v", g, id, got[g].evidence[id], want.evidence[id])
			}
			if got[g].accepts[id] != want.accepts[id] {
				t.Fatalf("goroutine %d: AcceptsZeroAt(%d) = %v, want %v", g, id, got[g].accepts[id], want.accepts[id])
			}
			if got[g].believes[id] != want.believes[id] {
				t.Fatalf("goroutine %d: BelievesExistsZeroStar(%d) = %v, want %v", g, id, got[g].believes[id], want.believes[id])
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
