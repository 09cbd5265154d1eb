package sba

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

func crashSys(t *testing.T, n, tt, h int) *system.System {
	t.Helper()
	sys, err := system.Enumerate(types.Params{N: n, T: tt}, failures.Crash, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The common-knowledge rule is a correct SBA protocol in the crash
// mode, deciding by time t+1 in every run.
func TestCommonKnowledgeRuleIsSBA(t *testing.T) {
	sys := crashSys(t, 3, 1, 3)
	e := knowledge.NewEvaluator(sys)
	outs := CommonKnowledgeOutcomes(e)
	if err := CheckOutcomes(sys, outs); err != nil {
		t.Fatal(err)
	}
	for r, out := range outs {
		if out.Time > types.Round(2) {
			t.Fatalf("run %d decides at %d > t+1", r, out.Time)
		}
	}
}

// Waste (DM90): common knowledge — and the simultaneous decision —
// arrives at time t+1-W, where waste W > 0 requires more failures
// revealed by some round than rounds elapsed. With t=1 waste is
// impossible (one failure in round 1 is not "more than 1"); with
// t=2, two crashes fully visible in round 1 buy a decision at time 2.
func TestWasteBuysEarlyCommonKnowledge(t *testing.T) {
	// t=1: every run decides at exactly t+1 = 2.
	sys3 := crashSys(t, 3, 1, 3)
	outs3 := CommonKnowledgeOutcomes(knowledge.NewEvaluator(sys3))
	for r, out := range outs3 {
		if !out.Decided || out.Time != 2 {
			t.Fatalf("t=1 run %d: outcome %+v, want decision at t+1 = 2", r, out)
		}
	}

	// t=2: the double round-1 crash decides at 2 = t+1-1; the single
	// crash and the failure-free run wait for t+1 = 3.
	sys4 := crashSys(t, 4, 2, 3)
	outs4 := CommonKnowledgeOutcomes(knowledge.NewEvaluator(sys4))
	all1 := types.ConfigFromBits(4, 0b1111)
	double := failures.MustPattern(failures.Crash, 4, 3, types.SetOf(2, 3), map[types.ProcID]*failures.Behavior{
		2: failures.CrashBehavior(2, 4, 3, 1, 0),
		3: failures.CrashBehavior(3, 4, 3, 1, 0),
	})
	for _, tc := range []struct {
		name string
		key  string
		want types.Round
	}{
		{"double crash", double.Key(), 2},
		{"single crash", failures.Silent(failures.Crash, 4, 3, 2, 1).Key(), 3},
		{"failure-free", failures.FailureFree(failures.Crash, 4, 3).Key(), 3},
	} {
		run, ok := sys4.FindRun(all1, tc.key)
		if !ok {
			t.Fatalf("%s: run missing", tc.name)
		}
		if out := outs4[run.Index]; !out.Decided || out.Time != tc.want || out.Value != types.One {
			t.Fatalf("%s: outcome %+v, want decision 1 at time %d", tc.name, out, tc.want)
		}
	}
}

// FloodSet is a correct simultaneous protocol deciding at exactly
// t+1, and the common-knowledge rule dominates it.
func TestFloodSet(t *testing.T) {
	sys := crashSys(t, 3, 1, 3)
	e := knowledge.NewEvaluator(sys)
	outs := CommonKnowledgeOutcomes(e)
	params := sys.Params
	for ri := 0; ri < sys.NumRuns(); ri++ {
		run := sys.Run(ri)
		tr, err := sim.Run(FloodSet(), params, run.Config(), run.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		var val types.Value = types.Unset
		for _, proc := range run.Nonfaulty().Members() {
			v, at, ok := tr.DecisionOf(proc)
			if !ok || at != types.Round(params.T+1) {
				t.Fatalf("run %d proc %d: not simultaneous at t+1", run.Index, proc)
			}
			if val == types.Unset {
				val = v
			} else if val != v {
				t.Fatalf("run %d: agreement violated", run.Index)
			}
		}
		if v, same := run.Config().AllEqual(); same && val != v {
			t.Fatalf("run %d: validity violated", run.Index)
		}
		if out := outs[run.Index]; out.Time > types.Round(params.T+1) {
			t.Fatalf("run %d: CK rule slower than FloodSet", run.Index)
		}
	}
}

// The motivating contrast (DRS90): the optimal EBA protocol's
// earliest deciders beat the optimal SBA rule in many runs, and EBA
// never waits past SBA everywhere... but individual processors may
// decide later — simultaneity and earliness trade off.
func TestEBABeatsSBAOnFirstDecisions(t *testing.T) {
	sys := crashSys(t, 3, 1, 3)
	e := knowledge.NewEvaluator(sys)
	outs := CommonKnowledgeOutcomes(e)
	p0opt := protocols.P0OptPair()
	cmp := CompareEBA(sys, func(run system.Run) []types.Round {
		var ts []types.Round
		for _, proc := range run.Nonfaulty().Members() {
			if _, at, ok := fip.DecisionAt(sys, p0opt, run, proc); ok {
				ts = append(ts, at)
			}
		}
		return ts
	}, outs)
	if cmp.EBAEarlierFirst == 0 {
		t.Fatal("EBA should have strictly earlier first deciders in some runs")
	}
	if cmp.SBAEarlierFirst != 0 {
		t.Fatalf("optimal EBA's first decider should never trail the SBA time (%+v)", cmp)
	}
	// Every all-zeros-holder decides at time 0 under EBA; SBA cannot
	// ever decide at time 0.
	for _, out := range outs {
		if out.Decided && out.Time == 0 {
			t.Fatal("SBA decided at time 0")
		}
	}
}

func TestCheckOutcomesErrors(t *testing.T) {
	sys := crashSys(t, 3, 1, 2)
	if err := CheckOutcomes(sys, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	outs := make([]Outcome, sys.NumRuns())
	if err := CheckOutcomes(sys, outs); err == nil {
		t.Fatal("undecided outcomes accepted")
	}
	for i := range outs {
		outs[i] = Outcome{Decided: true, Value: types.Zero, Time: 1}
	}
	if err := CheckOutcomes(sys, outs); err == nil {
		t.Fatal("validity violation accepted (all-ones run decided 0)")
	}
}
