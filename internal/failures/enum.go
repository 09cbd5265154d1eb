package failures

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/eventual-agreement/eba/internal/types"
)

// Enum enumerates every canonical failure pattern of the mode for an
// n-processor system with at most t faulty processors over horizon h:
// each faulty processor independently picks one behaviour from its
// menu (see menu). The patterns come faulty set by faulty set, in
// FaultySets order, and within a set the lowest member's menu varies
// fastest. The count is known before any pattern or faulty set exists
// (Count), so limit > 0 aborts with an error, before allocating, if
// there would be more than limit patterns; limit == 0 means no limit,
// and limit < 0 is rejected outright (a negative bound is always a
// caller bug, not a request for an unbounded enumeration).
func Enum(mode Mode, n, t, h, limit int) ([]*Pattern, error) {
	count, size, err := Count(mode, n, t, h, limit)
	if err != nil {
		return nil, err
	}
	w := rowLen(mode, h)
	faultyOf := make([]types.ProcSet, 0, count)
	sched := make([]types.ProcSet, 0, size)
	// The odometer: at[i] is the offset of member i's row in menus[i].
	menus, at := make([][]types.ProcSet, 0, t), make([]int, t)
	for _, faulty := range FaultySets(n, t) {
		menus = menus[:0]
		for rest := uint64(faulty); rest != 0; rest &= rest - 1 {
			menus = append(menus, menu(mode, n, h, types.ProcID(bits.TrailingZeros64(rest)), faulty))
		}
		clear(at)
		for {
			faultyOf = append(faultyOf, faulty)
			for i := range menus {
				sched = append(sched, menus[i][at[i]:at[i]+w]...)
			}
			j := 0
			for ; j < len(menus); j++ {
				i := j
				if mutant == "enum_order" {
					i = len(menus) - 1 - j
				}
				if at[i] += w; at[i] < len(menus[i]) {
					break
				}
				at[i] = 0
			}
			if j == len(menus) {
				break
			}
		}
	}
	return NewPatterns(mode, n, h, faultyOf, sched)
}

// Count returns the number of patterns Enum(mode, n, t, h, limit)
// builds and of schedule sets over all of them (saturating at
// math.MaxInt), or the error Enum returns, without building anything:
// its cost grows with t only. A
// menu's length depends on the faulty set only through its size f, so
// each of the C(n, f) sets of size f contributes menuLen^f patterns.
func Count(mode Mode, n, t, h, limit int) (count, size int, err error) {
	if limit < 0 {
		return 0, 0, fmt.Errorf("failures: negative pattern limit %d (0 means no limit)", limit)
	}
	if !mode.Valid() {
		return 0, 0, fmt.Errorf("failures: %w %v", ErrUnknownMode, mode)
	}
	if err := (types.Params{N: n, T: t}).Validate(); err != nil {
		return 0, 0, err
	}
	if h < 1 {
		return 0, 0, fmt.Errorf("failures: horizon %d < 1", h)
	}
	w := rowLen(mode, h)
	sets := 1 // C(n, f)
	for f := 0; f <= t; f++ {
		if f > 0 {
			// C(n, f) from C(n, f-1): exact for n ≤ 64, though the
			// product before the division can need 128 bits.
			hi, lo := bits.Mul64(uint64(sets), uint64(n-f+1))
			q, _ := bits.Div64(hi, lo, uint64(f))
			sets = int(q)
		}
		c := sets
		for range f {
			c = satMul(c, menuLen(mode, n, h, f))
		}
		count = satAdd(count, c)
		size = satAdd(size, satMul(c, f*w))
	}
	if limit > 0 && count > limit {
		return 0, 0, fmt.Errorf("failures: enumeration exceeds limit %d", limit)
	}
	if size == math.MaxInt {
		return 0, 0, fmt.Errorf("failures: %s enumeration n=%d t=%d h=%d too large to hold", mode, n, t, h)
	}
	return count, size, nil
}

// EnumCrash enumerates every canonical crash-mode failure pattern.
func EnumCrash(n, t, h int) ([]*Pattern, error) { return Enum(Crash, n, t, h, 0) }

// EnumOmission enumerates every sending-omission failure pattern:
// (2^(n-1))^h behaviours per faulty processor.
func EnumOmission(n, t, h int, limit int) ([]*Pattern, error) {
	return Enum(Omission, n, t, h, limit)
}

// EnumReceiving enumerates every receiving-omission failure pattern:
// (2^(n-1))^h behaviours per faulty processor, as in EnumOmission.
func EnumReceiving(n, t, h int, limit int) ([]*Pattern, error) {
	return Enum(ReceivingOmission, n, t, h, limit)
}

// EnumGeneral enumerates every canonical general-omission pattern:
// (2^(n-1) · 2^(n-f))^h behaviours per faulty processor when f are
// faulty.
func EnumGeneral(n, t, h int, limit int) ([]*Pattern, error) {
	return Enum(GeneralOmission, n, t, h, limit)
}

// choiceBases returns the sets that faulty processor p's per-round
// sending- and receiving-omission sets range over: the other
// processors in each direction the mode permits — except that in the
// general mode p receives-omits only from nonfaulty senders. That is
// what makes the general enumeration canonical and duplicate-free: a
// drop on a link whose sender is faulty has the sender-attributed
// description, and enumerating the receiver-attributed variant too
// would add a second run with identical deliveries (see Canonicalize).
func choiceBases(mode Mode, n int, p types.ProcID, faulty types.ProcSet) (send, recv types.ProcSet) {
	others := types.FullSet(n).Remove(p)
	if mode.HasSendingFaults() {
		send = others
	}
	if mode.HasReceivingFaults() {
		recv = others
	}
	if mode == GeneralOmission {
		recv = others.Minus(faulty)
	}
	return send, recv
}

// menuLen is the length of each faulty processor's menu when f ≥ 1
// processors are faulty, saturating at math.MaxInt.
func menuLen(mode Mode, n, h, f int) int {
	if mode == Crash {
		return satAdd(1, satMul(h, pow2(n-1)-1))
	}
	send, recv := choiceBases(mode, n, 0, types.FullSet(f))
	return pow2(satMul(h, send.Len()+recv.Len()))
}

// menu returns faulty processor p's behaviours as packed rows of
// rowLen(mode, h) sets, in enumeration order, starting with the row
// that omits nothing. In the crash mode that row is the invisible crash
// (the processor fails only after the horizon), followed, for each
// round k in 1..h and each proper subset A of the other processors, by
// a crash in round k whose round-k message reaches exactly A. The case
// A = "all others" is left out because it is behaviourally identical
// to a crash in round k+1 that delivers nothing, which the menu already
// holds (or to the invisible crash when k = h); one representative per
// visible behaviour keeps the enumerated system free of duplicate runs
// without changing any knowledge fact. In the omission modes the menu
// is every choice, per round, of a subset of each choice base: the
// first round varies slowest and, within a round, the sending set
// slower than the receiving set; subsets come in decreasing order.
func menu(mode Mode, n, h int, p types.ProcID, faulty types.ProcSet) []types.ProcSet {
	w := rowLen(mode, h)
	if mode == Crash {
		rows := make([]types.ProcSet, w, menuLen(mode, n, h, faulty.Len())*w) // nothing omitted
		others := types.FullSet(n).Remove(p)
		for k := 1; k <= h; k++ {
			forSubsets(others, func(allowed types.ProcSet) {
				if allowed != others {
					rows = append(rows, make([]types.ProcSet, h)...)
					crashRow(rows[len(rows)-h:], others, k, allowed)
				}
			})
		}
		return rows
	}
	// Round by round, each row so far becomes one per choice of the
	// round's sets, in place from the last row back (row j's go at j·c).
	send, recv := choiceBases(mode, n, p, faulty)
	c := 1 << (send.Len() + recv.Len())
	rows := make([]types.ProcSet, menuLen(mode, n, h, faulty.Len())*w) // row 0 omits nothing
	for r, m := 0, 1; r < h; r, m = r+1, m*c {
		for j := m - 1; j >= 0; j-- {
			k := j * c
			forSubsets(send, func(om types.ProcSet) {
				forSubsets(recv, func(rc types.ProcSet) {
					row := rows[k*w : (k+1)*w]
					copy(row, rows[j*w:(j+1)*w])
					row[r] = om // empty when the mode has no sending faults
					if recv != 0 {
						row[h+r] = rc
					}
					k++
				})
			})
		}
	}
	return rows
}

// forSubsets calls fn on every subset of base, in decreasing order.
func forSubsets(base types.ProcSet, fn func(types.ProcSet)) {
	b := uint64(base)
	// Standard subset-enumeration trick: iterate sub = (sub-1) & b.
	sub := b
	for {
		fn(types.ProcSet(sub))
		if sub == 0 {
			return
		}
		sub = (sub - 1) & b
	}
}

// pow2, satMul and satAdd are 2^k, a*b and a+b for nonnegative
// operands, saturating at math.MaxInt.
func pow2(k int) int {
	if k >= bits.UintSize-1 {
		return math.MaxInt
	}
	return 1 << k
}

func satMul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		return math.MaxInt
	}
	return int(lo)
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// SampleCrash draws count distinct crash patterns at random.
func SampleCrash(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return samplePatterns(Crash, n, t, h, count, rng)
}

// SampleOmission draws count distinct sending-omission patterns at
// random.
func SampleOmission(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return samplePatterns(Omission, n, t, h, count, rng)
}

// SampleReceiving draws count distinct receiving-omission patterns at
// random.
func SampleReceiving(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return samplePatterns(ReceivingOmission, n, t, h, count, rng)
}

// SampleGeneral draws count distinct canonical general-omission
// patterns at random.
func SampleGeneral(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	return samplePatterns(GeneralOmission, n, t, h, count, rng)
}

// samplePatterns draws count distinct patterns of the mode uniformly-ish
// at random, reproducibly from rng: the failure-free pattern first,
// then patterns with a faulty-set size uniform in [0,t], uniform
// members, and one drawRow per member in increasing order. The retry
// loop is bounded, so a space smaller than count yields fewer.
func samplePatterns(mode Mode, n, t, h, count int, rng *rand.Rand) ([]*Pattern, error) {
	if err := (types.Params{N: n, T: t}).Validate(); err != nil {
		return nil, err
	}
	if h < 1 {
		return nil, fmt.Errorf("failures: horizon %d < 1", h)
	}
	if count < 1 {
		return nil, fmt.Errorf("failures: count %d < 1", count)
	}
	if rng == nil {
		return nil, fmt.Errorf("failures: nil random source")
	}
	seen := make(map[string]bool, count)
	out := make([]*Pattern, 0, count)
	add := func(p *Pattern) {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	add(FailureFree(mode, n, h))
	w := rowLen(mode, h)
	for tries := 0; len(out) < count && tries < 1000*count; tries++ {
		size := rng.Intn(t + 1)
		var faulty types.ProcSet
		for faulty.Len() < size {
			faulty = faulty.Add(types.ProcID(rng.Intn(n)))
		}
		sched := make([]types.ProcSet, size*w)
		for i, p := range faulty.Members() {
			drawRow(mode, n, h, p, faulty, sched[i*w:(i+1)*w], rng)
		}
		pats, err := NewPatterns(mode, n, h, []types.ProcSet{faulty}, sched)
		if err != nil {
			return nil, err
		}
		add(pats[0])
	}
	return out, nil
}

// drawRow fills faulty processor p's packed schedule row at random.
// A crash is in a round uniform in 1..h+1 (h+1 is invisible) with a
// uniform delivery set. In the omission modes each round draws the
// sending set, then the receiving set, each uniform over its choice
// base and each only in a mode that has its direction.
func drawRow(mode Mode, n, h int, p types.ProcID, faulty types.ProcSet, row []types.ProcSet, rng *rand.Rand) {
	if mode == Crash {
		if k := 1 + rng.Intn(h+1); k <= h {
			others := types.FullSet(n).Remove(p)
			crashRow(row, others, k, types.ProcSet(rng.Uint64())&others)
		}
		return
	}
	send, recv := choiceBases(mode, n, p, faulty)
	for r := 0; r < h; r++ {
		if mode.HasSendingFaults() {
			row[r] = types.ProcSet(rng.Uint64()) & send
		}
		if mode.HasReceivingFaults() {
			row[h+r] = types.ProcSet(rng.Uint64()) & recv
		}
	}
}

// Silent builds the pattern in which processor p is faulty and sends
// no messages in any round from round k onward (its messages before k
// are delivered normally). In crash mode this is a crash in round k
// delivering nothing. Requires a mode with sending faults; in the
// receiving-omission mode use Deaf instead.
func Silent(mode Mode, n, h int, p types.ProcID, k int) *Pattern {
	return MustPattern(mode, n, h, types.Singleton(p), map[types.ProcID]*Behavior{p: {Omit: allFrom(n, h, p, k)}})
}

// Deaf builds the pattern in which processor p is faulty and receives
// no messages in any round from round k onward (messages before k
// reach it normally). It is the receiving-direction dual of Silent and
// requires a mode with receiving faults.
func Deaf(mode Mode, n, h int, p types.ProcID, k int) *Pattern {
	return MustPattern(mode, n, h, types.Singleton(p), map[types.ProcID]*Behavior{p: {Recv: allFrom(n, h, p, k)}})
}

// SilentExcept builds the omission-mode pattern of Proposition 6.3's
// proof: processor p is faulty and omits every message in every round,
// except that its round-m message to dst is delivered.
func SilentExcept(n, h int, p types.ProcID, m int, dst types.ProcID) *Pattern {
	omit := allFrom(n, h, p, 1)
	if m >= 1 && m <= h {
		omit[m-1] = omit[m-1].Remove(dst)
	}
	return MustPattern(Omission, n, h, types.Singleton(p), map[types.ProcID]*Behavior{p: {Omit: omit}})
}

// allFrom returns h rounds of omission sets for processor p that are
// empty before round k and every other processor from round k on.
func allFrom(n, h int, p types.ProcID, k int) []types.ProcSet {
	sets := make([]types.ProcSet, h)
	for r := max(k, 1); r <= h; r++ {
		sets[r-1] = types.FullSet(n).Remove(p)
	}
	return sets
}
