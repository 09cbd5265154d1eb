package core_test

import (
	"fmt"
	"testing"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// decision is one fip.DecisionAt answer.
type decision struct {
	v  types.Value
	at types.Round
	ok bool
}

// sweep answers every DecisionTable question as the definitions state
// it: fip.DecisionAt for every run and processor, read in run then
// processor order, with the error text each check must produce.
type sweep struct {
	sys  *system.System
	name string
	dec  [][]decision // [run][processor]
}

func newSweep(sys *system.System, p fip.Pair) *sweep {
	s := &sweep{sys: sys, name: p.Name, dec: make([][]decision, sys.NumRuns())}
	for r := range s.dec {
		run := sys.Run(r)
		s.dec[r] = make([]decision, sys.Params.N)
		for i := range s.dec[r] {
			v, at, ok := fip.DecisionAt(sys, p, run, types.ProcID(i))
			s.dec[r][i] = decision{v, at, ok}
		}
	}
	return s
}

// nonfaulty calls fn for every nonfaulty processor of every run until
// fn returns false.
func (s *sweep) nonfaulty(fn func(run system.Run, proc types.ProcID, d decision) bool) {
	for r, row := range s.dec {
		run := s.sys.Run(r)
		for i, d := range row {
			if run.Nonfaulty().Contains(types.ProcID(i)) && !fn(run, types.ProcID(i), d) {
				return
			}
		}
	}
}

func (s *sweep) checkDecision() (err error) {
	s.nonfaulty(func(run system.Run, proc types.ProcID, d decision) bool {
		if !d.ok {
			err = fmt.Errorf("core: %s: nonfaulty processor %d never decides in run %d (cfg %s, %s)",
				s.name, proc, run.Index, run.Config(), run.Pattern())
		}
		return err == nil
	})
	return err
}

func (s *sweep) agreement(kind string, keep func(run system.Run, proc types.ProcID, d decision) bool) error {
	for r, row := range s.dec {
		run := s.sys.Run(r)
		var saw [2]bool
		var who [2]types.ProcID
		for i, d := range row {
			if d.ok && keep(run, types.ProcID(i), d) {
				saw[d.v], who[d.v] = true, types.ProcID(i)
			}
		}
		if saw[0] && saw[1] {
			return fmt.Errorf("core: %s violates %s agreement in run %d (cfg %s, %s): %d decides 0, %d decides 1",
				s.name, kind, run.Index, run.Config(), run.Pattern(), who[0], who[1])
		}
	}
	return nil
}

func (s *sweep) weakAgreement() error {
	return s.agreement("weak", func(run system.Run, proc types.ProcID, _ decision) bool {
		return run.Nonfaulty().Contains(proc)
	})
}

func (s *sweep) uniformAgreement() error {
	return s.agreement("uniform", func(run system.Run, proc types.ProcID, d decision) bool {
		crash, crashed := run.Pattern().FirstOmission(proc)
		return s.sys.Mode != failures.Crash || !crashed || d.at < crash
	})
}

func (s *sweep) weakValidity() (err error) {
	s.nonfaulty(func(run system.Run, proc types.ProcID, d decision) bool {
		if d.ok && !run.HasValue(d.v) {
			err = fmt.Errorf("core: %s violates weak validity in run %d (cfg %s, %s): %d decides %s at %d",
				s.name, run.Index, run.Config(), run.Pattern(), proc, d.v, d.at)
		}
		return err == nil
	})
	return err
}

func (s *sweep) eba() error {
	if err := s.checkDecision(); err != nil {
		return err
	}
	if err := s.weakAgreement(); err != nil {
		return err
	}
	return s.weakValidity()
}

// enabling is CheckEnabling for the EBA spec, whose enabling facts ∃0
// and ∃1 are HasValue.
func (s *sweep) enabling() (err error) {
	s.nonfaulty(func(run system.Run, proc types.ProcID, d decision) bool {
		if d.ok && !run.HasValue(d.v) {
			err = fmt.Errorf("core: %s violates enabling for spec EBA: processor %d decides %s at %d in run %d (cfg %s, %s)",
				s.name, proc, d.v, d.at, run.Index, run.Config(), run.Pattern())
		}
		return err == nil
	})
	return err
}

func (s *sweep) worstCase() (max types.Round, all bool) {
	all = true
	s.nonfaulty(func(_ system.Run, _ types.ProcID, d decision) bool {
		all = all && d.ok
		if d.ok && d.at > max {
			max = d.at
		}
		return true
	})
	return max, all
}

func (s *sweep) histogram() map[types.Round]int {
	h := map[types.Round]int{}
	s.nonfaulty(func(_ system.Run, _ types.ProcID, d decision) bool {
		h[d.at]++
		return true
	})
	return h
}

func (s *sweep) fmax() map[int]types.Round {
	out := map[int]types.Round{}
	s.nonfaulty(func(run system.Run, _ types.ProcID, d decision) bool {
		at := d.at
		if !d.ok {
			at = types.Round(s.sys.Horizon + 1)
		}
		if f := run.Pattern().VisiblyFaulty().Len(); at > out[f] {
			out[f] = at
		}
		return true
	})
	return out
}

// dominance is Section 2.3's order between two sweeps' pairs.
func dominance(a, b *sweep) (dominates, sooner bool) {
	dominates = true
	a.nonfaulty(func(run system.Run, proc types.ProcID, ad decision) bool {
		bd := b.dec[run.Index][proc]
		if bd.ok && (!ad.ok || ad.at > bd.at) {
			dominates = false
		}
		if ad.ok && (!bd.ok || ad.at < bd.at) {
			sooner = true
		}
		return true
	})
	return dominates, sooner
}

// plantedPairs fail one property each on purpose: one never decides,
// one makes processor 0 disagree with the rest, and one decides 1 where
// every processor started with 0.
func plantedPairs() []fip.Pair {
	fromTime1 := func(keep func(types.ProcID) bool) func(in *views.Interner, id views.ID) bool {
		return func(in *views.Interner, id views.ID) bool { return in.Time(id) >= 1 && keep(in.Proc(id)) }
	}
	return []fip.Pair{
		{Name: "never", Z: fip.Empty("never.Z"), O: fip.Empty("never.O")},
		{Name: "split",
			Z: fip.FromPred("split.Z", fromTime1(func(p types.ProcID) bool { return p == 0 })),
			O: fip.FromPred("split.O", fromTime1(func(p types.ProcID) bool { return p != 0 }))},
		{Name: "invalid", Z: fip.Empty("invalid.Z"),
			O: fip.FromPred("invalid.O", fromTime1(func(types.ProcID) bool { return true }))},
	}
}

// countingSet counts the Contains calls a set answers per view. Decide
// asks 𝒵 first, every time, so a pair whose 𝒵 counts counts Decide.
type countingSet struct {
	fip.DecisionSet
	asked []int
}

func (c *countingSet) Contains(in *views.Interner, id views.ID) bool {
	c.asked[id]++
	return c.DecisionSet.Contains(in, id)
}

// counting returns the pair with 𝒵 counting, and the counts.
func counting(sys *system.System, p fip.Pair) (fip.Pair, *countingSet) {
	z := &countingSet{DecisionSet: p.Z, asked: make([]int, sys.Interner.Size())}
	p.Z = z
	return p, z
}

// views returns how many views were asked, and the most calls one
// view got.
func (c *countingSet) views() (asked, most int) {
	for _, k := range c.asked {
		if k > 0 {
			asked++
		}
		most = max(most, k)
	}
	return asked, most
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// modeSizes are the n=3 t=1 systems of all four modes at ebacheck's
// golden horizons.
var modeSizes = []struct {
	mode failures.Mode
	h    int
}{
	{failures.Crash, 3},
	{failures.Omission, 3},
	{failures.ReceivingOmission, 2},
	{failures.GeneralOmission, 2},
}

// TestDecisionTableMatchesDecisionAt holds every method of the per-view
// table, and every free function, to a run sweep over fip.DecisionAt —
// values and exact error strings — for ebacheck's pairs, the chain
// protocol's syntactic pair and three planted failing pairs at n=3 t=1
// in all four modes, with the pair's rules asked at most once per view
// and never past a decision.
func TestDecisionTableMatchesDecisionAt(t *testing.T) {
	for _, tc := range modeSizes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys, err := system.Enumerate(types.Params{N: 3, T: 1}, tc.mode, tc.h, 0)
			if err != nil {
				t.Fatal(err)
			}
			e := knowledge.NewEvaluator(sys)
			pairs := append(checkedPairs(e), plantedPairs()...)
			tables := make([]*core.DecisionTable, len(pairs))
			sweeps := make([]*sweep, len(pairs))
			counts := make([]*countingSet, len(pairs))
			failed := map[string]bool{}
			for pi, p := range pairs {
				var counted fip.Pair
				counted, counts[pi] = counting(sys, p)
				tables[pi], sweeps[pi] = core.Decisions(sys, counted), newSweep(sys, p)
				tbl, sw := tables[pi], sweeps[pi]
				enabling := core.CheckEnabling(e, core.EBASpec(), p)
				for _, c := range []struct {
					name      string
					got, free error
					want      error
				}{
					{"CheckDecision", tbl.CheckDecision(), core.CheckDecision(sys, p), sw.checkDecision()},
					{"CheckWeakAgreement", tbl.CheckWeakAgreement(), core.CheckWeakAgreement(sys, p), sw.weakAgreement()},
					{"CheckUniformAgreement", tbl.CheckUniformAgreement(), core.CheckUniformAgreement(sys, p), sw.uniformAgreement()},
					{"CheckWeakValidity", tbl.CheckWeakValidity(), core.CheckWeakValidity(sys, p), sw.weakValidity()},
					{"CheckEBA", tbl.CheckEBA(), core.CheckEBA(sys, p), sw.eba()},
					{"CheckEnabling", enabling, enabling, sw.enabling()},
				} {
					if errText(c.got) != errText(c.want) || errText(c.free) != errText(c.want) {
						t.Errorf("%s %s:\n table %s\n free  %s\n want  %s", p.Name, c.name, errText(c.got), errText(c.free), errText(c.want))
					}
					if c.want != nil {
						failed[c.name] = true
					}
				}
				gmax, gall := tbl.MaxNonfaultyDecisionRound()
				fmax, fall := core.MaxNonfaultyDecisionRound(sys, p)
				if wmax, wall := sw.worstCase(); gmax != wmax || gall != wall || fmax != wmax || fall != wall {
					t.Errorf("%s worst case: table (%d, %v), free (%d, %v), want (%d, %v)", p.Name, gmax, gall, fmax, fall, wmax, wall)
				}
				for _, c := range []struct {
					name            string
					got, free, want any
				}{
					{"DecisionHistogram", tbl.DecisionHistogram(), core.DecisionHistogram(sys, p), sw.histogram()},
					{"FMaxDecisionBound", tbl.FMaxDecisionBound(), core.FMaxDecisionBound(sys, p), sw.fmax()},
				} {
					if fmt.Sprint(c.got) != fmt.Sprint(c.want) || fmt.Sprint(c.free) != fmt.Sprint(c.want) {
						t.Errorf("%s %s: table %v, free %v, want %v", p.Name, c.name, c.got, c.free, c.want)
					}
				}
				for r := 0; r < sys.NumRuns(); r++ {
					for i, w := range sw.dec[r] {
						if v, at, ok := tbl.At(r, types.ProcID(i)); (decision{v, at, ok}) != w {
							t.Fatalf("%s run %d proc %d: table (%s, %d, %v), DecisionAt (%s, %d, %v)", p.Name, r, i, v, at, ok, w.v, w.at, w.ok)
						}
					}
				}
			}
			for _, name := range []string{"CheckDecision", "CheckWeakAgreement", "CheckWeakValidity"} {
				if !failed[name] {
					t.Errorf("no pair fails %s: the error strings are not compared", name)
				}
			}
			for ai, a := range pairs {
				for bi, b := range pairs {
					dom, sooner := dominance(sweeps[ai], sweeps[bi])
					if got := tables[ai].Dominates(tables[bi]); got != dom {
						t.Errorf("%s dominates %s = %v, want %v", a.Name, b.Name, got, dom)
					}
					if got := tables[ai].StrictlyDominates(tables[bi]); got != (dom && sooner) {
						t.Errorf("%s strictly dominates %s = %v, want %v", a.Name, b.Name, got, dom && sooner)
					}
					if core.Dominates(sys, a, b) != dom || core.StrictlyDominates(sys, a, b) != (dom && sooner) {
						t.Errorf("free Dominates/StrictlyDominates(%s, %s) disagree with the sweep", a.Name, b.Name)
					}
				}
			}
			in := sys.Interner
			for pi, p := range pairs {
				if _, most := counts[pi].views(); most > 1 {
					t.Errorf("%s: one view was asked %d times by one table", p.Name, most)
				}
				for id, k := range counts[pi].asked {
					for prev := in.Prev(views.ID(id)); k > 0 && prev != views.NoView; prev = in.Prev(prev) {
						if _, ok := p.Decide(in, prev); ok {
							t.Fatalf("%s: view %d was asked after its history decided at time %d", p.Name, id, in.Time(prev))
						}
					}
				}
			}
		})
	}
}

// TestDecisionTableFillsOnDemand: a question the first views settle
// asks about those views and their histories only, so the free
// Dominates — two fresh tables per call — costs what its answer needs,
// not two sweeps of the system.
func TestDecisionTableFillsOnDemand(t *testing.T) {
	sys, err := system.Enumerate(types.Params{N: 3, T: 1}, failures.Crash, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, ca := counting(sys, protocols.P1Pair(1))
	p0, cb := counting(sys, protocols.P0Pair(1))
	a, b := core.Decisions(sys, p1), core.Decisions(sys, p0)
	if a.Dominates(b) {
		t.Fatal("P1 dominates P0")
	}
	size := sys.Interner.Size()
	for _, c := range []struct {
		name string
		set  *countingSet
	}{{"P1", ca}, {"P0", cb}} {
		if asked, _ := c.set.views(); asked == 0 || asked >= size/2 {
			t.Errorf("a dominance refuted early asked %s about %d of %d views", c.name, asked, size)
		}
	}
	if err := a.CheckEBA(); err != nil {
		t.Errorf("reading the rest of a partly filled table: %v", err)
	}
	if _, most := ca.views(); most > 1 {
		t.Errorf("filling the rest asked one view %d times", most)
	}
}
