package sim

import (
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// flood0 is a minimal test protocol: relay "saw a zero" flags; decide
// 0 upon learning of a zero, decide 1 at time t+1 otherwise. (The real
// P0 lives in the protocols package; this local copy keeps the sim
// tests self-contained.)
type flood0 struct{}

func (flood0) Name() string { return "flood0-test" }

func (flood0) New(env Env) Process {
	return &flood0Proc{env: env, saw0: env.Initial == types.Zero, decided: types.Unset}
}

type flood0Proc struct {
	env     Env
	saw0    bool
	relayed bool
	decided types.Value
	at      types.Round
}

func (p *flood0Proc) Send(r types.Round) []Message {
	if !p.saw0 || p.relayed {
		return nil
	}
	p.relayed = true
	out := make([]Message, p.env.Params.N)
	for i := range out {
		out[i] = "zero"
	}
	return out
}

func (p *flood0Proc) Receive(r types.Round, msgs []Message) {
	for _, m := range msgs {
		if m != nil {
			p.saw0 = true
		}
	}
	p.maybeDecide(r)
}

func (p *flood0Proc) maybeDecide(now types.Round) {
	if p.decided != types.Unset {
		return
	}
	switch {
	case p.saw0:
		p.decided = types.Zero
		p.at = now
	case now >= types.Round(p.env.Params.T+1):
		p.decided = types.One
		p.at = now
	}
}

func (p *flood0Proc) Decided() (types.Value, bool) {
	if p.decided == types.Unset {
		// A process with initial 0 decides at time 0, before any round.
		p.maybeDecide(0)
	}
	return p.decided, p.decided != types.Unset
}

func params(n, t int) types.Params { return types.Params{N: n, T: t} }

func TestRunFailureFreeAllOnes(t *testing.T) {
	cfg := types.ConfigFromBits(4, 0b1111)
	tr, err := Run(flood0{}, params(4, 1), cfg, failures.FailureFree(failures.Crash, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for p := types.ProcID(0); p < 4; p++ {
		v, at, ok := tr.DecisionOf(p)
		if !ok || v != types.One || at != 2 {
			t.Fatalf("proc %d: (%v,%d,%v), want (1,2,true)", p, v, at, ok)
		}
	}
	if !tr.NonfaultyDecided() {
		t.Fatal("NonfaultyDecided false")
	}
}

func TestRunZeroPropagation(t *testing.T) {
	cfg := types.ConfigFromBits(4, 0b1110) // proc 0 has value 0
	tr, err := Run(flood0{}, params(4, 1), cfg, failures.FailureFree(failures.Crash, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v, at, _ := tr.DecisionOf(0); v != types.Zero || at != 0 {
		t.Fatalf("proc 0 decided (%v,%d), want (0,0)", v, at)
	}
	for p := types.ProcID(1); p < 4; p++ {
		if v, at, _ := tr.DecisionOf(p); v != types.Zero || at != 1 {
			t.Fatalf("proc %d decided (%v,%d), want (0,1)", p, v, at)
		}
	}
}

func TestRunCrashMasksSends(t *testing.T) {
	// Proc 0 has the only zero and crashes in round 1 delivering only
	// to proc 1; proc 1 decides 0 at time 1 and relays in round 2.
	cfg := types.ConfigFromBits(4, 0b1110)
	pat := failures.MustPattern(failures.Crash, 4, 3, types.SetOf(0), map[types.ProcID]*failures.Behavior{
		0: failures.CrashBehavior(0, 4, 3, 1, types.SetOf(1)),
	})
	tr, err := Run(flood0{}, params(4, 1), cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	if v, at, _ := tr.DecisionOf(1); v != types.Zero || at != 1 {
		t.Fatalf("proc 1 decided (%v,%d), want (0,1)", v, at)
	}
	for _, p := range []types.ProcID{2, 3} {
		if v, at, _ := tr.DecisionOf(p); v != types.Zero || at != 2 {
			t.Fatalf("proc %d decided (%v,%d), want (0,2)", p, v, at)
		}
	}
	if !tr.NonfaultyDecided() {
		t.Fatal("nonfaulty should all decide")
	}
}

func TestRunValidationErrors(t *testing.T) {
	cfg4 := types.ConfigFromBits(4, 0)
	pat4 := failures.FailureFree(failures.Crash, 4, 2)
	if _, err := Run(flood0{}, params(1, 0), cfg4, pat4); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := Run(flood0{}, params(4, 1), types.ConfigFromBits(3, 0), pat4); err == nil {
		t.Fatal("config size mismatch accepted")
	}
	if _, err := Run(flood0{}, params(4, 1), cfg4, failures.FailureFree(failures.Crash, 3, 2)); err == nil {
		t.Fatal("pattern size mismatch accepted")
	}
	twoFaulty := failures.MustPattern(failures.Crash, 4, 2, types.SetOf(0, 1), nil)
	if _, err := Run(flood0{}, params(4, 1), cfg4, twoFaulty); err == nil {
		t.Fatal("too many faulty accepted")
	}
}

// badSender returns a wrong-length send slice.
type badSender struct{}

func (badSender) Name() string      { return "bad" }
func (badSender) New(e Env) Process { return badProc{n: e.Params.N} }

type badProc struct{ n int }

func (badProc) Send(types.Round) []Message     { return make([]Message, 1) }
func (badProc) Receive(types.Round, []Message) {}
func (badProc) Decided() (types.Value, bool)   { return types.Unset, false }

func TestRunBadSendLength(t *testing.T) {
	_, err := Run(badSender{}, params(4, 1), types.ConfigFromBits(4, 0), failures.FailureFree(failures.Crash, 4, 1))
	if err == nil || !strings.Contains(err.Error(), "sent 1 messages") {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceAccessors(t *testing.T) {
	cfg := types.ConfigFromBits(3, 0b110)
	pat := failures.Silent(failures.Crash, 3, 2, 2, 1)
	tr, err := Run(flood0{}, params(3, 1), cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tr.DecisionOf(0); !ok {
		t.Fatal("proc 0 should decide")
	}
	ds := tr.Decisions()
	if len(ds) == 0 {
		t.Fatal("no decisions recorded")
	}
	if !strings.Contains(tr.String(), "flood0-test") {
		t.Fatalf("String = %q", tr.String())
	}
}

func TestTraceRecordFirstOnly(t *testing.T) {
	tr := NewTrace("x", types.ConfigFromBits(2, 0), failures.FailureFree(failures.Crash, 2, 1))
	tr.Record(0, types.Zero, 1)
	tr.Record(0, types.One, 2)
	if v, at, _ := tr.DecisionOf(0); v != types.Zero || at != 1 {
		t.Fatal("record overwrote first decision")
	}
}

func TestRunAll(t *testing.T) {
	pats, err := failures.EnumCrash(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := RunAll(flood0{}, params(3, 1), pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != len(pats)*8 {
		t.Fatalf("RunAll produced %d traces, want %d", len(trs), len(pats)*8)
	}
	// flood0 satisfies agreement and validity on every crash run.
	for _, tr := range trs {
		var seen [2]bool
		nf := tr.Pattern.Nonfaulty()
		nf.ForEach(func(p types.ProcID) bool {
			v, _, ok := tr.DecisionOf(p)
			if !ok {
				t.Fatalf("nonfaulty %d undecided in %s", p, tr)
			}
			seen[v] = true
			return true
		})
		if seen[0] && seen[1] {
			t.Fatalf("agreement violated in %s", tr)
		}
		if v, same := tr.Config.AllEqual(); same {
			nf.ForEach(func(p types.ProcID) bool {
				if got, _, _ := tr.DecisionOf(p); got != v {
					t.Fatalf("validity violated in %s", tr)
				}
				return true
			})
		}
	}
}

func TestRunAllErrorPropagates(t *testing.T) {
	pats := []*failures.Pattern{failures.FailureFree(failures.Crash, 3, 1)}
	if _, err := RunAll(badSender{}, params(3, 1), pats); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestDiffDecisions(t *testing.T) {
	pat := failures.FailureFree(failures.Crash, 3, 2)
	cfg := types.ConfigFromBits(3, 0b110)
	a := NewTrace("x", cfg, pat)
	b := NewTrace("x", cfg, pat)
	if d := DiffDecisions(a, b); d != "" {
		t.Fatalf("empty traces differ: %s", d)
	}
	a.Record(1, types.Zero, 2)
	if d := DiffDecisions(a, b); !strings.Contains(d, "proc 1") {
		t.Fatalf("missing decision undetected: %q", d)
	}
	b.Record(1, types.Zero, 2)
	if d := DiffDecisions(a, b); d != "" {
		t.Fatalf("equal decisions differ: %s", d)
	}
	// Same value, different time.
	c := NewTrace("x", cfg, pat)
	c.Record(1, types.Zero, 1)
	if d := DiffDecisions(a, c); !strings.Contains(d, "time") {
		t.Fatalf("time divergence undetected: %q", d)
	}
	// Different system sizes.
	small := NewTrace("x", types.ConfigFromBits(2, 0), failures.FailureFree(failures.Crash, 2, 1))
	if d := DiffDecisions(a, small); !strings.Contains(d, "sizes") {
		t.Fatalf("size divergence undetected: %q", d)
	}
}

func TestDiffTracesCounters(t *testing.T) {
	pat := failures.FailureFree(failures.Crash, 3, 2)
	cfg := types.ConfigFromBits(3, 0)
	a := NewTrace("x", cfg, pat)
	b := NewTrace("x", cfg, pat)
	a.Sent, a.Delivered = 12, 10
	b.Sent, b.Delivered = 12, 10
	if !a.Same(b) {
		t.Fatalf("equal traces differ: %s", DiffTraces(a, b))
	}
	b.Delivered = 9
	if d := DiffTraces(a, b); !strings.Contains(d, "delivered") {
		t.Fatalf("delivered divergence undetected: %q", d)
	}
	b.Sent, b.Delivered = 11, 10
	if d := DiffTraces(a, b); !strings.Contains(d, "sent") {
		t.Fatalf("sent divergence undetected: %q", d)
	}
	if a.Same(b) {
		t.Fatal("Same ignored counters")
	}
}
