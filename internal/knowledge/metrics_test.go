package knowledge

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

// counterReading names one series of the process registry.
type counterReading struct {
	name   string
	labels []telemetry.Label
}

// readCounters reads the series' current values from one snapshot.
func readCounters(rs []counterReading) []float64 {
	snap := telemetry.Default().Snapshot()
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = snap.CounterValue(r.name, r.labels...)
	}
	return out
}

// TestEvalMetricsExact pins the evaluator's cache and fixed-point
// counters to the work a fixed evaluation does: each fixed-point series
// moves by exactly the matching EvalStats field, every cache miss is
// one eval by operator, and a repeated Eval of the same node is one hit
// and no miss.
func TestEvalMetricsExact(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	e := NewEvaluator(sys)
	nf := Nonfaulty()
	series := []counterReading{
		{name: "eba_knowledge_eval_cache_hits_total"},
		{name: "eba_knowledge_eval_cache_misses_total"},
		{name: "eba_knowledge_fixedpoint_iterations_total", labels: []telemetry.Label{telemetry.L("op", "cdiamond")}},
		{name: "eba_knowledge_fixedpoint_iterations_total", labels: []telemetry.Label{telemetry.L("op", "cbox_iterative")}},
		{name: "eba_knowledge_fixedpoint_iterations_total", labels: []telemetry.Label{telemetry.L("op", "c_iter")}},
		{name: "eba_knowledge_eval_total", labels: []telemetry.Label{telemetry.L("op", "cdiamond")}},
	}
	const hits, misses, cdiamond, cboxIter, cIter, evalCDiamond = 0, 1, 2, 3, 4, 5
	evalSum := func() float64 { return telemetry.Default().Snapshot().CounterSum("eba_knowledge_eval_total") }

	before, evalBefore := readCounters(series), evalSum()
	f := CDiamond(nf, Exists0())
	e.Eval(f)
	if _, ok := e.CIterConvergence(nf, Exists0(), sys.NumPoints()); !ok {
		t.Fatal("C iteration did not converge")
	}
	e.CBoxIterative(nf, Exists0())
	after, evalAfter := readCounters(series), evalSum()
	d := make([]float64, len(series))
	for i := range series {
		d[i] = after[i] - before[i]
	}

	st := e.Stats()
	if st.CDiamondIterations == 0 || st.CIterations == 0 || st.CBoxIterativeIterations == 0 {
		t.Fatalf("fixed evaluation ran no fixed point: %+v", st)
	}
	for _, c := range []struct {
		i    int
		want int
	}{{cdiamond, st.CDiamondIterations}, {cboxIter, st.CBoxIterativeIterations}, {cIter, st.CIterations}} {
		if d[c.i] != float64(c.want) {
			t.Errorf("%s%v rose by %v, EvalStats counts %d", series[c.i].name, series[c.i].labels, d[c.i], c.want)
		}
	}
	if d[evalCDiamond] != 1 {
		t.Errorf(`eba_knowledge_eval_total{op="cdiamond"} rose by %v, want 1`, d[evalCDiamond])
	}
	if d[misses] == 0 || d[misses] != evalAfter-evalBefore {
		t.Errorf("eba_knowledge_eval_cache_misses_total rose by %v, eba_knowledge_eval_total by %v: want equal and nonzero",
			d[misses], evalAfter-evalBefore)
	}

	// The same node again is answered from the memo.
	before = readCounters(series)
	e.Eval(f)
	after = readCounters(series)
	if h, m := after[hits]-before[hits], after[misses]-before[misses]; h != 1 || m != 0 {
		t.Errorf("repeated Eval: %v cache hits and %v misses, want 1 and 0", h, m)
	}
}

// TestCDiamondRoundsExact pins C◇_𝒩 E0's round count, the worklist's
// non-empty layers plus the empty one that ends it, on the four systems
// cmd/ebaq's goldens report it for ("fixpoint: N iterations"), and the
// op="cdiamond" fixed-point series to the same count.
func TestCDiamondRoundsExact(t *testing.T) {
	series := counterReading{name: "eba_knowledge_fixedpoint_iterations_total", labels: []telemetry.Label{telemetry.L("op", "cdiamond")}}
	for _, c := range []struct {
		mode   failures.Mode
		h      int
		rounds int
	}{
		{failures.Crash, 3, 2},
		{failures.Omission, 3, 3},
		{failures.ReceivingOmission, 2, 2},
		{failures.GeneralOmission, 2, 3},
	} {
		sys := newModeSys(t, c.mode, 3, 1, c.h)
		e := NewEvaluator(sys)
		before := readCounters([]counterReading{series})[0]
		e.Eval(CDiamond(Nonfaulty(), Exists0()))
		rose := readCounters([]counterReading{series})[0] - before
		if got := e.Stats().CDiamondIterations; got != c.rounds || rose != float64(c.rounds) {
			t.Errorf("%s n=3 t=1 h=%d: %d rounds, series rose by %v; want %d", c.mode, c.h, got, rose, c.rounds)
		}
	}
}
