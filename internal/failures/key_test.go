package failures

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/eventual-agreement/eba/internal/types"
)

// fmtKey is the key as it was first written, one fmt.Fprintf per
// field. Snapshot digests, FindRun callers and the conformance corpus
// all hold keys of this form, so Key must keep producing it byte for
// byte.
func fmtKey(p *Pattern) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/n%d/h%d/F%x", p.Mode(), p.N(), p.Horizon(), uint64(p.Faulty()))
	for _, q := range p.Faulty().Members() {
		visible, recvVisible := false, false
		for r := 1; r <= p.Horizon(); r++ {
			recvVisible = recvVisible || !p.RecvOmittedBy(q, types.Round(r)).Empty()
			visible = visible || !p.OmittedBy(q, types.Round(r)).Empty()
		}
		if !visible && !recvVisible {
			continue
		}
		fmt.Fprintf(&b, "|%d:", q)
		for r := 1; r <= p.Horizon(); r++ {
			fmt.Fprintf(&b, "%x,", uint64(p.OmittedBy(q, types.Round(r))))
		}
		if recvVisible {
			b.WriteString("R")
			for r := 1; r <= p.Horizon(); r++ {
				fmt.Fprintf(&b, "%x,", uint64(p.RecvOmittedBy(q, types.Round(r))))
			}
		}
	}
	return b.String()
}

func enumAll(t *testing.T, mode Mode, n, tt, h int) []*Pattern {
	t.Helper()
	pats, err := Enum(mode, n, tt, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

func TestPatternKeyMatchesFmtForm(t *testing.T) {
	for _, mode := range Modes {
		pats := enumAll(t, mode, 3, 1, 2)
		for _, p := range pats {
			if got, want := p.Key(), fmtKey(p); got != want {
				t.Fatalf("%s: Key() = %q, the fmt form is %q", mode, got, want)
			}
		}
		t.Logf("%s: %d keys", mode, len(pats))
	}
}

func TestPatternKeyGoldens(t *testing.T) {
	for _, tc := range []struct {
		pat  *Pattern
		want string
	}{
		{FailureFree(Crash, 4, 3), "crash/n4/h3/F0"},
		{MustPattern(Omission, 12, 2, types.SetOf(1, 11), map[types.ProcID]*Behavior{
			11: {Omit: []types.ProcSet{types.SetOf(0, 4, 5, 10), types.EmptySet}},
		}), "omission/n12/h2/F802|11:431,0,"},
		{MustPattern(GeneralOmission, 4, 2, types.SetOf(0, 2), map[types.ProcID]*Behavior{
			0: {Recv: []types.ProcSet{types.EmptySet, types.SetOf(1, 3)}},
			2: {Omit: []types.ProcSet{types.SetOf(0, 1, 3)}, Recv: []types.ProcSet{types.SetOf(3)}},
		}), "general-omission/n4/h2/F5|0:0,0,R0,a,|2:b,0,R8,0,"},
	} {
		if got := tc.pat.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
	}
}

// TestPatternKeyFirstCallConcurrent has eight goroutines ask a fresh
// pattern for its key at once: the key is computed on first use, and
// the daemon's concurrent queries share one system's patterns.
func TestPatternKeyFirstCallConcurrent(t *testing.T) {
	pats := enumAll(t, GeneralOmission, 3, 1, 2)
	keys := make([][]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for _, p := range pats {
				keys[g] = append(keys[g], p.Key())
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range keys {
		for i, p := range pats {
			if keys[g][i] != fmtKey(p) {
				t.Fatalf("goroutine %d read key %q of pattern %d, want %q", g, keys[g][i], i, fmtKey(p))
			}
		}
	}
}

// TestNewPatternsMatchesNewPattern holds the packed constructor to the
// per-pattern one: same patterns from the same schedules, the same
// rejections with the same reasons.
func TestNewPatternsMatchesNewPattern(t *testing.T) {
	for _, mode := range Modes {
		pats := enumAll(t, mode, 3, 1, 2)
		var faulty, sched []types.ProcSet
		for _, p := range pats {
			faulty = append(faulty, p.Faulty())
			sched = append(sched, p.sched...)
		}
		packed, err := NewPatterns(mode, 3, 2, faulty, sched)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(packed) != len(pats) {
			t.Fatalf("%s: %d patterns, want %d", mode, len(packed), len(pats))
		}
		for i, p := range pats {
			if packed[i].Key() != p.Key() {
				t.Fatalf("%s: pattern %d is %q, want %q", mode, i, packed[i].Key(), p.Key())
			}
		}
	}

	set := func(ps ...types.ProcID) types.ProcSet { return types.SetOf(ps...) }
	for _, tc := range []struct {
		name          string
		mode          Mode
		n, h          int
		faulty, sched []types.ProcSet
		want          string
	}{
		{"unknown mode", Mode(9), 3, 2, nil, nil, "unknown failure mode"},
		{"n out of range", Crash, 1, 2, nil, nil, "n=1 out of range"},
		{"horizon", Crash, 3, 0, nil, nil, "horizon 0 < 1"},
		{"faulty outside n", Crash, 3, 1, []types.ProcSet{set(3)}, []types.ProcSet{0},
			"pattern 0: failures: faulty set {3} not within 3 processors"},
		{"short schedule", Omission, 3, 2, []types.ProcSet{0, set(1)}, []types.ProcSet{0},
			"pattern 1: failures: schedule has 1 sets left, want 2"},
		{"long schedule", Omission, 3, 1, []types.ProcSet{set(1)}, []types.ProcSet{0, 0},
			"1 schedule sets beyond the last pattern"},
		{"omits itself", Omission, 3, 1, []types.ProcSet{set(1)}, []types.ProcSet{set(1)},
			"pattern 0: failures: processor 1 round 1 omits {1} outside others"},
		{"drops outside others", GeneralOmission, 3, 1, []types.ProcSet{set(1)}, []types.ProcSet{0, set(4)},
			"pattern 0: failures: processor 1 round 1 drops receives {4} outside others"},
		{"sends in receiving mode", ReceivingOmission, 3, 1, []types.ProcSet{set(1)}, []types.ProcSet{set(0), 0},
			"pattern 0: failures: processor 1 has sending omissions in receiving-omission mode"},
		{"crash resumes", Crash, 3, 2, []types.ProcSet{0, set(2)}, []types.ProcSet{set(0), 0},
			"pattern 1: failures: processor 2 behaviour lacks crash shape"},
	} {
		_, err := NewPatterns(tc.mode, tc.n, tc.h, tc.faulty, tc.sched)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
