package failures

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/eventual-agreement/eba/internal/types"
)

func TestModeString(t *testing.T) {
	if Crash.String() != "crash" || Omission.String() != "omission" {
		t.Fatal("mode names wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Fatal("unknown mode string")
	}
	if Mode(0).Valid() || !Crash.Valid() {
		t.Fatal("Valid wrong")
	}
}

func TestBehaviorOmittedIn(t *testing.T) {
	var nilB *Behavior
	if !nilB.OmittedIn(1).Empty() || nilB.Visible() {
		t.Fatal("nil behaviour should omit nothing")
	}
	b := &Behavior{Omit: []types.ProcSet{types.SetOf(1), types.EmptySet}}
	if b.OmittedIn(1) != types.SetOf(1) {
		t.Fatal("round 1 wrong")
	}
	if !b.OmittedIn(2).Empty() || !b.OmittedIn(3).Empty() || !b.OmittedIn(0).Empty() {
		t.Fatal("out-of-range rounds should be empty")
	}
	if !b.Visible() {
		t.Fatal("Visible wrong")
	}
}

func TestCrashBehaviorShape(t *testing.T) {
	const n, h = 4, 4
	for k := 1; k <= h+1; k++ {
		b := CrashBehavior(0, n, h, k, types.SetOf(1))
		if !b.CrashShape(0, n, h) {
			t.Errorf("CrashBehavior(k=%d) lacks crash shape", k)
		}
		if k > h && b.Visible() {
			t.Errorf("crash beyond horizon should be invisible")
		}
		if k <= h {
			if got := b.OmittedIn(types.Round(k)); got != types.SetOf(2, 3) {
				t.Errorf("k=%d: round-k omissions = %v, want {2,3}", k, got)
			}
			if k < h {
				if got := b.OmittedIn(types.Round(k + 1)); got != types.SetOf(1, 2, 3) {
					t.Errorf("k=%d: round k+1 omissions = %v", k, got)
				}
			}
		}
	}
	// Not crash shape: omission in round 1, silence, then speech.
	bad := &Behavior{Omit: []types.ProcSet{types.SetOf(1), types.SetOf(1, 2, 3), types.EmptySet}}
	if bad.CrashShape(0, n, 3) {
		t.Fatal("resurrecting processor accepted as crash shape")
	}
	// Omitting a message to itself is not a valid shape.
	self := &Behavior{Omit: []types.ProcSet{types.SetOf(0)}}
	if self.CrashShape(0, n, 1) {
		t.Fatal("self-omission accepted")
	}
}

func TestNewPatternValidation(t *testing.T) {
	beh := map[types.ProcID]*Behavior{0: CrashBehavior(0, 4, 2, 1, types.SetOf(2))}
	tests := []struct {
		name   string
		mode   Mode
		n, h   int
		faulty types.ProcSet
		b      map[types.ProcID]*Behavior
		ok     bool
	}{
		{"valid crash", Crash, 4, 2, types.SetOf(0), beh, true},
		{"bad mode", Mode(0), 4, 2, types.SetOf(0), beh, false},
		{"n too small", Crash, 1, 2, types.EmptySet, nil, false},
		{"h too small", Crash, 4, 0, types.EmptySet, nil, false},
		{"faulty outside n", Crash, 4, 2, types.SetOf(7), nil, false},
		{"behaviour for nonfaulty", Crash, 4, 2, types.EmptySet, beh, false},
		{"behaviour too long", Crash, 4, 1,
			types.SetOf(0), map[types.ProcID]*Behavior{0: {Omit: make([]types.ProcSet, 2)}}, false},
		{"self omission", Omission, 4, 1,
			types.SetOf(0), map[types.ProcID]*Behavior{0: {Omit: []types.ProcSet{types.SetOf(0)}}}, false},
		{"non-crash shape in crash mode", Crash, 4, 3,
			types.SetOf(0), map[types.ProcID]*Behavior{0: {Omit: []types.ProcSet{types.SetOf(1), 0, types.SetOf(1)}}}, false},
		{"same shape fine under omission", Omission, 4, 3,
			types.SetOf(0), map[types.ProcID]*Behavior{0: {Omit: []types.ProcSet{types.SetOf(1), 0, types.SetOf(1)}}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPattern(tt.mode, tt.n, tt.h, tt.faulty, tt.b)
			if (err == nil) != tt.ok {
				t.Errorf("err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestPatternAccessors(t *testing.T) {
	p := MustPattern(Crash, 4, 3, types.SetOf(1, 2), map[types.ProcID]*Behavior{
		1: CrashBehavior(1, 4, 3, 2, types.SetOf(0)),
		// processor 2 faulty but invisible
	})
	if p.Mode() != Crash || p.N() != 4 || p.Horizon() != 3 {
		t.Fatal("accessors wrong")
	}
	if p.Faulty() != types.SetOf(1, 2) || p.Nonfaulty() != types.SetOf(0, 3) {
		t.Fatal("faulty/nonfaulty wrong")
	}
	if p.VisiblyFaulty() != types.SetOf(1) {
		t.Fatalf("VisiblyFaulty = %v", p.VisiblyFaulty())
	}
	// Round 1: everything delivered.
	if !p.Delivers(1, 1, 0) || !p.Delivers(1, 1, 3) {
		t.Fatal("round 1 should deliver")
	}
	// Round 2: only processor 0 receives from 1.
	if !p.Delivers(1, 2, 0) || p.Delivers(1, 2, 3) {
		t.Fatal("round 2 delivery wrong")
	}
	if got := p.Receivers(1, 2); got != types.SetOf(0) {
		t.Fatalf("Receivers = %v", got)
	}
	// Round 3: silence.
	if got := p.Receivers(1, 3); !got.Empty() {
		t.Fatalf("Receivers after crash = %v", got)
	}
	// Self-delivery always true.
	if !p.Delivers(1, 3, 1) {
		t.Fatal("self-delivery should hold")
	}
	// Nonfaulty processor always delivers.
	if got := p.Receivers(0, 3); got != types.SetOf(1, 2, 3) {
		t.Fatalf("nonfaulty Receivers = %v", got)
	}
	if !strings.Contains(p.String(), "faulty={1,2}") {
		t.Fatalf("String = %q", p.String())
	}
	if !strings.Contains(FailureFree(Crash, 3, 2).String(), "failure-free") {
		t.Fatal("failure-free String wrong")
	}
}

func TestPatternExtend(t *testing.T) {
	p := MustPattern(Crash, 4, 2, types.SetOf(1), map[types.ProcID]*Behavior{
		1: CrashBehavior(1, 4, 2, 2, types.EmptySet),
	})
	q, err := p.Extend(4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Horizon() != 4 {
		t.Fatal("horizon not extended")
	}
	// Crash persists: rounds 3 and 4 omit everything.
	if !q.Receivers(1, 3).Empty() || !q.Receivers(1, 4).Empty() {
		t.Fatal("crash must persist beyond original horizon")
	}
	if _, err := p.Extend(1); err == nil {
		t.Fatal("shrinking Extend accepted")
	}
	// Omission extension leaves the new rounds failure-free.
	o := SilentExcept(4, 2, 1, 2, 0)
	oe, err := o.Extend(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := oe.Receivers(1, 3); got != types.SetOf(0, 2, 3) {
		t.Fatalf("omission extension round 3 = %v", got)
	}
}

func TestPatternKeyDistinguishes(t *testing.T) {
	a := Silent(Omission, 4, 3, 1, 1)
	b := Silent(Omission, 4, 3, 1, 2)
	c := Silent(Omission, 4, 3, 2, 1)
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Fatal("keys should differ")
	}
	a2 := Silent(Omission, 4, 3, 1, 1)
	if a.Key() != a2.Key() {
		t.Fatal("identical patterns should share keys")
	}
	// Invisible faulty processor is part of the identity.
	inv := MustPattern(Omission, 4, 3, types.SetOf(1), nil)
	ff := FailureFree(Omission, 4, 3)
	if inv.Key() == ff.Key() {
		t.Fatal("invisible-faulty pattern must differ from failure-free")
	}
}

func TestFaultySets(t *testing.T) {
	got := FaultySets(3, 1)
	want := []types.ProcSet{types.EmptySet, types.SetOf(0), types.SetOf(1), types.SetOf(2)}
	if len(got) != len(want) {
		t.Fatalf("FaultySets(3,1) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FaultySets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(FaultySets(4, 2)) != 1+4+6 {
		t.Fatalf("FaultySets(4,2) count = %d", len(FaultySets(4, 2)))
	}
	// The order is by size, then by mask: what a scan of every mask
	// once per size gives, up to n = 10.
	for n := 2; n <= 10; n++ {
		for tt := 0; tt <= n; tt++ {
			var want []types.ProcSet
			for size := 0; size <= tt; size++ {
				for m := range uint64(1) << n {
					if s := types.ProcSet(m); s.Len() == size {
						want = append(want, s)
					}
				}
			}
			if got := FaultySets(n, tt); !slices.Equal(got, want) {
				t.Fatalf("FaultySets(%d,%d) = %v, want %v", n, tt, got, want)
			}
		}
	}
	// Only the sets it returns are visited, so a large n costs their
	// number, not 2^n.
	if got := FaultySets(48, 2); len(got) != 1+48+1128 || got[len(got)-1] != types.SetOf(46, 47) {
		t.Fatalf("FaultySets(48,2): %d sets, last %v", len(got), got[len(got)-1])
	}
	if got := FaultySets(64, 2); len(got) != 1+64+2016 || got[len(got)-1] != types.SetOf(62, 63) {
		t.Fatalf("FaultySets(64,2): %d sets, last %v", len(got), got[len(got)-1])
	}
}

func TestEnumCrashCounts(t *testing.T) {
	// Per faulty processor: 1 invisible + h*(2^(n-1)-1) visible.
	tests := []struct {
		n, t, h int
		want    int
	}{
		// n=3: per-proc = 1 + 2*(4-1) = 7; sets: 1 + 3*7 = 22.
		{3, 1, 2, 1 + 3*7},
		// n=4, h=3: per-proc = 1 + 3*7 = 22; 1 + 4*22 = 89.
		{4, 1, 3, 1 + 4*22},
		// n=4, t=2, h=2: per-proc = 1+2*7=15; 1 + 4*15 + 6*15*15 = 1411.
		{4, 2, 2, 1 + 4*15 + 6*225},
	}
	for _, tt := range tests {
		ps, err := EnumCrash(tt.n, tt.t, tt.h)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != tt.want {
			t.Errorf("EnumCrash(%d,%d,%d) = %d patterns, want %d", tt.n, tt.t, tt.h, len(ps), tt.want)
		}
		seen := make(map[string]bool, len(ps))
		for _, p := range ps {
			if seen[p.Key()] {
				t.Fatalf("duplicate pattern key %q", p.Key())
			}
			seen[p.Key()] = true
			if p.Faulty().Len() > tt.t {
				t.Fatalf("pattern with %d faulty > t", p.Faulty().Len())
			}
		}
	}
}

func TestEnumOmissionCounts(t *testing.T) {
	// Closed forms: per faulty processor (2^(n-1))^h behaviours in the
	// sending and receiving modes, and (2^(n-1) · 2^(n-f))^h in the
	// general mode when f processors are faulty.
	for _, tc := range []struct {
		mode    Mode
		n, t, h int
		want    int
	}{
		{Omission, 3, 1, 2, 1 + 3*16},
		{Omission, 3, 2, 2, 1 + 3*16 + 3*16*16},
		{ReceivingOmission, 3, 2, 2, 1 + 3*16 + 3*16*16},
		{ReceivingOmission, 4, 2, 1, 1 + 4*8 + 6*8*8},
		{GeneralOmission, 3, 2, 2, 1 + 3*16*16 + 3*8*8*8*8},
		{GeneralOmission, 4, 2, 1, 1 + 4*64 + 6*32*32},
	} {
		ps, err := Enum(tc.mode, tc.n, tc.t, tc.h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != tc.want {
			t.Errorf("Enum(%s, %d, %d, %d) = %d patterns, want %d", tc.mode, tc.n, tc.t, tc.h, len(ps), tc.want)
		}
	}
	if _, err := EnumOmission(4, 1, 3, 10); err == nil {
		t.Fatal("limit not enforced")
	}
}

// TestEnumLimitGuard: in every mode a limit equal to the pattern count
// is met and one less is refused, and the refusal comes before any
// pattern is built — general omission at n=4, t=2, h=2 has ~6.3 M
// canonical patterns, and refusing it allocates under 1 MB, counted
// by the allocator rather than timed.
func TestEnumLimitGuard(t *testing.T) {
	for _, mode := range Modes {
		pats, err := Enum(mode, 3, 2, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Enum(mode, 3, 2, 2, len(pats)); err != nil {
			t.Errorf("%s: limit == count %d refused: %v", mode, len(pats), err)
		}
		if _, err := Enum(mode, 3, 2, 2, len(pats)-1); err == nil {
			t.Errorf("%s: limit %d below the count accepted", mode, len(pats)-1)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := EnumGeneral(4, 2, 2, 2_000_000)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "failures: enumeration exceeds limit 2000000" {
		t.Fatalf("over-limit enumeration: err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the over-limit enumeration allocated %d bytes, want under 1 MB", got)
	}
}

// TestEnumCountsBeforeFaultySets: Count is the length Enum returns in
// every mode, and the limit is checked from it before a faulty set
// exists, so an over-limit enumeration at n=48 is refused at once.
func TestEnumCountsBeforeFaultySets(t *testing.T) {
	for _, mode := range Modes {
		for _, c := range []struct{ n, t, h int }{{2, 1, 1}, {3, 1, 2}, {3, 2, 2}, {4, 1, 2}} {
			pats, err := Enum(mode, c.n, c.t, c.h, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, err := Count(mode, c.n, c.t, c.h, 0); err != nil || got != len(pats) {
				t.Errorf("%s n=%d t=%d h=%d: Count %d (%v), Enum built %d", mode, c.n, c.t, c.h, got, err, len(pats))
			}
		}
	}
	_, err := Enum(Omission, 48, 2, 2, 2_000_000)
	if err == nil || err.Error() != "failures: enumeration exceeds limit 2000000" {
		t.Fatalf("Enum(Omission, 48, 2, 2, 2000000): %v, want the limit error", err)
	}
	if _, _, err := Count(Crash, 64, 63, 1, 0); err == nil || !strings.Contains(err.Error(), "too large to hold") {
		t.Fatalf("Count(Crash, 64, 63, 1, 0): %v, want too large to hold", err)
	}
}

func TestEnumErrors(t *testing.T) {
	if _, err := EnumCrash(1, 0, 2); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := EnumCrash(3, 1, 0); err == nil {
		t.Fatal("h=0 accepted")
	}
	if _, err := EnumOmission(3, 3, 2, 0); err == nil {
		t.Fatal("t=n accepted")
	}
	if _, err := EnumOmission(3, 1, 0, 0); err == nil {
		t.Fatal("h=0 accepted")
	}
}

func TestSamplers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	om, err := SampleOmission(5, 2, 3, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(om) != 50 {
		t.Fatalf("SampleOmission returned %d", len(om))
	}
	if !om[0].Faulty().Empty() {
		t.Fatal("first sample should be failure-free")
	}
	seen := make(map[string]bool)
	for _, p := range om {
		if seen[p.Key()] {
			t.Fatal("duplicate sample")
		}
		seen[p.Key()] = true
	}
	cr, err := SampleCrash(5, 2, 3, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cr {
		for _, q := range p.Faulty().Members() {
			if b := p.behaviorOf(q); !b.CrashShape(q, 5, 3) {
				t.Fatal("sampled crash pattern lacks crash shape")
			}
		}
	}
	if _, err := SampleOmission(5, 2, 3, 0, rng); err == nil {
		t.Fatal("count=0 accepted")
	}
	if _, err := SampleOmission(5, 2, 3, 5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := SampleCrash(1, 0, 3, 5, rng); err == nil {
		t.Fatal("bad params accepted")
	}
	if _, err := SampleCrash(5, 2, 0, 5, rng); err == nil {
		t.Fatal("h=0 accepted")
	}
}

func TestSilentAndSilentExcept(t *testing.T) {
	s := Silent(Omission, 4, 3, 2, 2)
	if !s.Delivers(2, 1, 0) || s.Delivers(2, 2, 0) || s.Delivers(2, 3, 1) {
		t.Fatal("Silent delivery wrong")
	}
	se := SilentExcept(4, 3, 1, 2, 3)
	if se.Delivers(1, 1, 0) || !se.Delivers(1, 2, 3) || se.Delivers(1, 2, 0) || se.Delivers(1, 3, 3) {
		t.Fatal("SilentExcept delivery wrong")
	}
}

// Property: Receivers and Delivers agree, and nonfaulty processors
// always deliver everything.
func TestDeliversReceiversQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps, err := SampleOmission(5, 2, 3, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pi uint8, sender, dst uint8, r uint8) bool {
		p := ps[int(pi)%len(ps)]
		s := types.ProcID(sender % 5)
		d := types.ProcID(dst % 5)
		round := types.Round(1 + r%3)
		if s == d {
			return p.Delivers(s, round, d)
		}
		if p.Nonfaulty().Contains(s) && !p.Delivers(s, round, d) {
			return false
		}
		return p.Receivers(s, round).Contains(d) == p.Delivers(s, round, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEnumOmissionLimitSemantics pins the limit contract: 0 means no
// limit, a positive limit is an inclusive bound on the pattern count,
// and a negative limit is rejected outright rather than treated as
// unlimited.
func TestEnumOmissionLimitSemantics(t *testing.T) {
	ps, err := EnumOmission(3, 1, 2, 0)
	if err != nil {
		t.Fatalf("limit 0 (no limit): %v", err)
	}
	if len(ps) != 49 {
		t.Fatalf("got %d patterns, want 49", len(ps))
	}
	if _, err := EnumOmission(3, 1, 2, 49); err != nil {
		t.Fatalf("limit == count must succeed: %v", err)
	}
	if _, err := EnumOmission(3, 1, 2, 48); err == nil {
		t.Fatal("limit == count-1 accepted")
	}
	_, err = EnumOmission(3, 1, 2, -1)
	if err == nil {
		t.Fatal("negative limit accepted")
	}
	if !strings.Contains(err.Error(), "negative pattern limit") {
		t.Fatalf("negative limit error %q does not name the cause", err)
	}
}
