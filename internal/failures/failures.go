// Package failures models the failure behaviour of processors in the
// crash and sending-omission failure modes of Halpern, Moses, and
// Waarts (PODC 1990), Section 2.1 — extended with the receiving- and
// general-omission modes of "Optimal Eventual Byzantine Agreement
// Protocols with Omission Failures" (arXiv:2305.06271) — and provides
// exhaustive enumerators and seeded samplers over failure patterns.
//
// A failure pattern (paper, Section 2.3) is "the faulty behavior of
// all the processors that fail in the run", where the faulty behavior
// of a processor is "a complete description of the processors to whom
// it omits sending required messages at each round". In the
// receiving-omission mode the description instead lists the senders
// whose required messages the faulty processor fails to receive; in
// the general-omission mode both directions may fail. A protocol, an
// initial configuration, and a failure pattern uniquely determine a
// run.
//
// Because a dropped message on the link s→d is observationally the
// same event whether s omitted to send it or d omitted to receive it,
// general-omission patterns admit multiple descriptions of one run.
// The canonical form used by the enumerators and reconstruction
// attributes a drop to the sender whenever the sender is faulty:
// canonical general-omission behaviours have receive-omission sets
// containing only nonfaulty senders. Canonicalize rewrites any legal
// general pattern into this form without changing a single delivery.
//
// Because this repository works with finite-horizon systems, a pattern
// describes behaviour for rounds 1..H. A processor may be designated
// faulty yet exhibit no visible deviation within the horizon; this
// models processors that fail only after time H (crash mode) or whose
// omissions all lie beyond the horizon (omission modes). Such runs are
// required for faithful knowledge semantics: a processor can never
// know that another processor is nonfaulty.
package failures

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/eventual-agreement/eba/internal/types"
)

// Mode selects the failure semantics.
type Mode int

// Supported failure modes.
const (
	// Crash: a faulty processor obeys its protocol until it commits a
	// crash failure at some round k > 0; in round k it sends an
	// arbitrary subset of its required messages, and after round k it
	// sends nothing.
	Crash Mode = iota + 1
	// Omission: a faulty processor may omit to send an arbitrary set
	// of messages in any given round (sending omissions, MT88). It
	// receives all messages sent to it.
	Omission
	// ReceivingOmission: a faulty processor may fail to receive an
	// arbitrary set of its required inbound messages in any given
	// round. It sends all of its required messages.
	ReceivingOmission
	// GeneralOmission: a faulty processor may commit both sending and
	// receiving omissions (general omissions, PT86).
	GeneralOmission
)

// Modes lists every supported mode, in declaration order. New modes
// must be appended here; the exhaustiveness tests walk this slice.
var Modes = []Mode{Crash, Omission, ReceivingOmission, GeneralOmission}

// ErrUnknownMode is wrapped by every error produced for a Mode value
// outside Modes, so callers at any layer can classify mode errors with
// errors.Is rather than string matching.
var ErrUnknownMode = errors.New("unknown failure mode")

// String returns the mode name. The names double as wire/CLI values:
// ParseMode(m.String()) == m for every valid mode.
func (m Mode) String() string {
	switch m {
	case Crash:
		return "crash"
	case Omission:
		return "omission"
	case ReceivingOmission:
		return "receiving-omission"
	case GeneralOmission:
		return "general-omission"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is a known mode.
func (m Mode) Valid() bool {
	switch m {
	case Crash, Omission, ReceivingOmission, GeneralOmission:
		return true
	default:
		return false
	}
}

// ParseMode maps a mode name to its Mode. It accepts the canonical
// String() names plus the short aliases "sending" (sending omission),
// "receiving", and "general". Unknown names return an error wrapping
// ErrUnknownMode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "crash":
		return Crash, nil
	case "omission", "sending", "sending-omission":
		return Omission, nil
	case "receiving-omission", "receiving":
		return ReceivingOmission, nil
	case "general-omission", "general":
		return GeneralOmission, nil
	default:
		return 0, fmt.Errorf("failures: %w %q (want crash | omission | receiving-omission | general-omission)", ErrUnknownMode, s)
	}
}

// HasSendingFaults reports whether the mode permits sending omissions
// (nonempty Behavior.Omit).
func (m Mode) HasSendingFaults() bool {
	return m == Crash || m == Omission || m == GeneralOmission
}

// HasReceivingFaults reports whether the mode permits receiving
// omissions (nonempty Behavior.Recv).
func (m Mode) HasReceivingFaults() bool {
	return m == ReceivingOmission || m == GeneralOmission
}

// Behavior is the faulty behaviour of a single processor: for each
// round r in 1..H, the set of destinations to whom it omits sending
// its required round-r message (Omit) and the set of senders whose
// required round-r message it fails to receive (Recv). The zero
// Behavior omits nothing in either direction. Which direction may be
// nonempty is a property of the pattern's mode, enforced by
// NewPattern.
type Behavior struct {
	// Omit[r-1] is the set of destinations that do NOT receive the
	// processor's round-r message even though the protocol requires
	// one. Entries beyond len(Omit) are treated as empty.
	Omit []types.ProcSet
	// Recv[r-1] is the set of senders whose required round-r message
	// the processor fails to receive. Entries beyond len(Recv) are
	// treated as empty. Only the receiving- and general-omission modes
	// permit nonempty entries.
	Recv []types.ProcSet
}

// OmittedIn returns the sending-omission set for round r (1-based).
func (b *Behavior) OmittedIn(r types.Round) types.ProcSet {
	if b == nil {
		return types.EmptySet
	}
	idx := int(r) - 1
	if idx < 0 || idx >= len(b.Omit) {
		return types.EmptySet
	}
	return b.Omit[idx]
}

// RecvOmittedIn returns the receiving-omission set for round r
// (1-based): the senders whose round-r message the processor drops.
func (b *Behavior) RecvOmittedIn(r types.Round) types.ProcSet {
	if b == nil {
		return types.EmptySet
	}
	idx := int(r) - 1
	if idx < 0 || idx >= len(b.Recv) {
		return types.EmptySet
	}
	return b.Recv[idx]
}

// Visible reports whether the behaviour deviates at all within the
// horizon (some omission set, sending or receiving, is nonempty).
func (b *Behavior) Visible() bool {
	return b != nil && (nonempty(b.Omit) || nonempty(b.Recv))
}

// nonempty reports whether any of the sets is nonempty.
func nonempty(sets []types.ProcSet) bool {
	for _, s := range sets {
		if !s.Empty() {
			return true
		}
	}
	return false
}

// CrashShape reports whether the behaviour has the shape required by
// the crash mode for a processor p in an n-processor system: there is
// a round k such that nothing is omitted before k, an arbitrary set is
// omitted at k, and everything is omitted after k. A behaviour with no
// omissions has crash shape (the crash lies beyond the horizon).
func (b *Behavior) CrashShape(p types.ProcID, n int, h int) bool {
	others := types.FullSet(n).Remove(p)
	k := -1 // first round with a nonempty omission, 1-based
	for r := 1; r <= h; r++ {
		om := b.OmittedIn(types.Round(r))
		if !om.SubsetOf(others) {
			return false
		}
		if k == -1 {
			if !om.Empty() {
				k = r
			}
			continue
		}
		if r > k && om != others {
			return false
		}
	}
	return true
}

// CrashBehavior builds the crash-mode behaviour of a processor p (in
// an n-processor system, horizon h) that crashes in round k, delivering
// its round-k message only to the processors in allowed. If k > h the
// crash is invisible within the horizon and the behaviour is empty.
func CrashBehavior(p types.ProcID, n, h, k int, allowed types.ProcSet) *Behavior {
	if k > h {
		return &Behavior{}
	}
	b := &Behavior{Omit: make([]types.ProcSet, h)}
	crashRow(b.Omit, types.FullSet(n).Remove(p), k, allowed)
	return b
}

// crashRow writes into omit, whose entries are empty, the sending
// omissions of a processor that crashes in round k ≤ len(omit),
// delivering its round-k message to allowed of others and nothing
// after.
func crashRow(omit []types.ProcSet, others types.ProcSet, k int, allowed types.ProcSet) {
	omit[k-1] = others.Minus(allowed)
	for r := k; r < len(omit); r++ {
		omit[r] = others
	}
}

// Pattern is a complete failure pattern for a run: the designated
// faulty set and, for each faulty processor, its behaviour. Patterns
// are immutable after construction.
type Pattern struct {
	mode   Mode
	n      int
	h      int
	faulty types.ProcSet
	// sched packs the behaviours, one row per faulty processor in
	// increasing order: the processor's sending-omission sets for rounds
	// 1..h followed, in the modes with receiving faults, by its
	// receiving-omission sets for rounds 1..h. A processor that deviates
	// invisibly has an all-empty row.
	sched []types.ProcSet

	// key is computed by the first Key call: builds, restores and
	// evaluations never ask for it, and a snapshot holds thousands of
	// patterns.
	keyOnce sync.Once
	key     string
}

// rowLen is the length of one processor's row of a packed schedule.
func rowLen(mode Mode, h int) int {
	if mode.HasReceivingFaults() {
		return 2 * h
	}
	return h
}

// checkPattern validates the arguments every pattern shares.
func checkPattern(mode Mode, n, h int) error {
	if !mode.Valid() {
		return fmt.Errorf("failures: %w %v", ErrUnknownMode, mode)
	}
	if n < 2 || n > types.MaxProcs {
		return fmt.Errorf("failures: n=%d out of range", n)
	}
	if h < 1 {
		return fmt.Errorf("failures: horizon %d < 1", h)
	}
	return nil
}

// checkBehavior validates processor p's behaviour, at most h rounds
// long, against the mode.
func checkBehavior(mode Mode, n, h int, p types.ProcID, b *Behavior) error {
	others := types.FullSet(n).Remove(p)
	for r, s := range b.Omit {
		if !s.SubsetOf(others) {
			return fmt.Errorf("failures: processor %d round %d omits %v outside others", p, r+1, s)
		}
	}
	for r, s := range b.Recv {
		if !s.SubsetOf(others) {
			return fmt.Errorf("failures: processor %d round %d drops receives %v outside others", p, r+1, s)
		}
	}
	if !mode.HasSendingFaults() && nonempty(b.Omit) {
		return fmt.Errorf("failures: processor %d has sending omissions in %s mode", p, mode)
	}
	if !mode.HasReceivingFaults() && nonempty(b.Recv) {
		return fmt.Errorf("failures: processor %d has receiving omissions in %s mode", p, mode)
	}
	if mode == Crash && !b.CrashShape(p, n, h) {
		return fmt.Errorf("failures: processor %d behaviour lacks crash shape", p)
	}
	return nil
}

// NewPattern builds and validates a pattern. Every processor with a
// behaviour must be in faulty; crash-mode behaviours must have crash
// shape; sending omissions (Omit) are legal only in modes with sending
// faults and receiving omissions (Recv) only in modes with receiving
// faults. Faulty processors without an explicit behaviour deviate
// invisibly (beyond the horizon). General-omission patterns are NOT
// required to be canonical here — any legal description is accepted;
// use Canonicalize for the enumerators' normal form.
func NewPattern(mode Mode, n, h int, faulty types.ProcSet, behavior map[types.ProcID]*Behavior) (*Pattern, error) {
	if err := checkPattern(mode, n, h); err != nil {
		return nil, err
	}
	if !faulty.SubsetOf(types.FullSet(n)) {
		return nil, fmt.Errorf("failures: faulty set %v not within %d processors", faulty, n)
	}
	pat := &Pattern{mode: mode, n: n, h: h, faulty: faulty}
	pat.sched = make([]types.ProcSet, faulty.Len()*rowLen(mode, h))
	for p, b := range behavior {
		if !faulty.Contains(p) {
			return nil, fmt.Errorf("failures: processor %d has behaviour but is not faulty", p)
		}
		if b == nil {
			continue
		}
		if len(b.Omit) > h || len(b.Recv) > h {
			return nil, fmt.Errorf("failures: processor %d behaviour longer than horizon", p)
		}
		if err := checkBehavior(mode, n, h, p, b); err != nil {
			return nil, err
		}
		// The legality checks leave only empty sets in a direction the
		// mode gives no row to.
		row := pat.row(p)
		copy(row, b.Omit)
		if mode.HasReceivingFaults() {
			copy(row[h:], b.Recv)
		}
	}
	return pat, nil
}

// NewPatterns builds one pattern per entry of faulty from their packed
// schedules, holding each to the rules of NewPattern: sched is the
// concatenation, pattern by pattern, of one row per faulty processor in
// increasing order — its h sending-omission sets, then in the modes
// with receiving faults its h receiving-omission sets. This is the
// order snapshots store patterns in. The patterns share sched and one
// backing array, so the caller must not modify sched afterwards.
func NewPatterns(mode Mode, n, h int, faulty, sched []types.ProcSet) ([]*Pattern, error) {
	if err := checkPattern(mode, n, h); err != nil {
		return nil, err
	}
	w := rowLen(mode, h)
	slab := make([]Pattern, len(faulty))
	pats := make([]*Pattern, len(faulty))
	for i, f := range faulty {
		size := f.Len() * w
		if size > len(sched) {
			return nil, fmt.Errorf("pattern %d: failures: schedule has %d sets left, want %d", i, len(sched), size)
		}
		pats[i] = &slab[i]
		if err := pats[i].adopt(mode, n, h, f, sched[:size:size]); err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		sched = sched[size:]
	}
	if len(sched) != 0 {
		return nil, fmt.Errorf("failures: %d schedule sets beyond the last pattern", len(sched))
	}
	return pats, nil
}

// adopt makes pat the pattern with the given packed schedule, one row
// per member of faulty, after checking it as NewPattern would.
func (pat *Pattern) adopt(mode Mode, n, h int, faulty types.ProcSet, sched []types.ProcSet) error {
	if !faulty.SubsetOf(types.FullSet(n)) {
		return fmt.Errorf("failures: faulty set %v not within %d processors", faulty, n)
	}
	w := rowLen(mode, h)
	row := sched
	for rest := uint64(faulty); rest != 0; rest &= rest - 1 {
		p := types.ProcID(bits.TrailingZeros64(rest))
		if err := checkBehavior(mode, n, h, p, &Behavior{Omit: row[:h], Recv: row[h:w]}); err != nil {
			return err
		}
		row = row[w:]
	}
	pat.mode, pat.n, pat.h, pat.faulty, pat.sched = mode, n, h, faulty, sched
	return nil
}

// MustPattern is NewPattern that panics on error; for tests and
// internal enumerators whose inputs are correct by construction.
func MustPattern(mode Mode, n, h int, faulty types.ProcSet, behavior map[types.ProcID]*Behavior) *Pattern {
	p, err := NewPattern(mode, n, h, faulty, behavior)
	if err != nil {
		panic(err)
	}
	return p
}

// FailureFree returns the pattern with no faulty processors.
func FailureFree(mode Mode, n, h int) *Pattern {
	return MustPattern(mode, n, h, types.EmptySet, nil)
}

// Mode returns the failure mode.
func (p *Pattern) Mode() Mode { return p.mode }

// N returns the system size.
func (p *Pattern) N() int { return p.n }

// Horizon returns the number of described rounds.
func (p *Pattern) Horizon() int { return p.h }

// Faulty returns the set of processors designated faulty in the run.
func (p *Pattern) Faulty() types.ProcSet { return p.faulty }

// Nonfaulty returns the complement of Faulty: the nonrigid set 𝒩
// evaluated at any point of a run with this pattern (a processor is
// nonfaulty in a run only if it is nonfaulty throughout the run,
// Section 2.1).
func (p *Pattern) Nonfaulty() types.ProcSet { return types.FullSet(p.n).Minus(p.faulty) }

// row returns processor q's row of the packed schedule, nil when q is
// not faulty.
func (p *Pattern) row(q types.ProcID) []types.ProcSet {
	if !p.faulty.Contains(q) {
		return nil
	}
	w := rowLen(p.mode, p.h)
	k := bits.OnesCount64(uint64(p.faulty) & (1<<uint(q) - 1))
	return p.sched[k*w : (k+1)*w]
}

// behaviorOf returns processor q's behaviour as views of the packed
// schedule (the zero Behavior when q is not faulty); callers must not
// modify the sets.
func (p *Pattern) behaviorOf(q types.ProcID) Behavior {
	row := p.row(q)
	if row == nil {
		return Behavior{}
	}
	return Behavior{Omit: row[:p.h], Recv: row[p.h:]}
}

// VisiblyFaulty returns the processors whose behaviour deviates within
// the horizon. In Proposition 6.4's statement "f processors actually
// fail", f is the size of this set plus invisible faulty processors;
// the decision bound uses failures a run can reveal, so callers
// distinguish the two.
func (p *Pattern) VisiblyFaulty() types.ProcSet {
	var s types.ProcSet
	for _, q := range p.faulty.Members() {
		if b := p.behaviorOf(q); b.Visible() {
			s = s.Add(q)
		}
	}
	return s
}

// FirstOmission returns the first round in which p omits a message
// (sending or receiving), and false if p never visibly deviates within
// the horizon. In the crash mode this is the crash round.
func (pat *Pattern) FirstOmission(p types.ProcID) (types.Round, bool) {
	b := pat.behaviorOf(p)
	for r := 1; r <= pat.h; r++ {
		if !b.OmittedIn(types.Round(r)).Empty() || !b.RecvOmittedIn(types.Round(r)).Empty() {
			return types.Round(r), true
		}
	}
	return 0, false
}

// OmittedBy returns the destinations that do not receive sender's
// round-r message because the SENDER omitted it (given that its
// protocol requires one). Receiving omissions by the destinations are
// not reflected here; Delivers combines both directions.
func (p *Pattern) OmittedBy(sender types.ProcID, r types.Round) types.ProcSet {
	row := p.row(sender)
	if row == nil || r < 1 || int(r) > p.h {
		return types.EmptySet
	}
	return row[r-1]
}

// RecvOmittedBy returns the senders whose required round-r message dst
// fails to receive (dst's receiving omissions).
func (p *Pattern) RecvOmittedBy(dst types.ProcID, r types.Round) types.ProcSet {
	row := p.row(dst)
	if len(row) <= p.h || r < 1 || int(r) > p.h {
		return types.EmptySet
	}
	return row[p.h+int(r)-1]
}

// Delivers reports whether a required round-r message from sender
// reaches dst under this pattern: the sender must not omit sending it
// and the destination must not omit receiving it. Self-delivery is
// always true: a processor knows its own state.
func (p *Pattern) Delivers(sender types.ProcID, r types.Round, dst types.ProcID) bool {
	if sender == dst {
		return true
	}
	if p.OmittedBy(sender, r).Contains(dst) {
		return false
	}
	return !p.RecvOmittedBy(dst, r).Contains(sender)
}

// Receivers returns the set of processors (other than the sender) that
// receive sender's required round-r message.
func (p *Pattern) Receivers(sender types.ProcID, r types.Round) types.ProcSet {
	out := types.FullSet(p.n).Remove(sender).Minus(p.OmittedBy(sender, r))
	for _, dst := range out.Members() {
		if p.RecvOmittedBy(dst, r).Contains(sender) {
			out = out.Remove(dst)
		}
	}
	return out
}

// Extend returns a copy of the pattern with the horizon grown to h2,
// with no additional visible deviations (crash behaviours keep
// omitting everything after the crash round).
func (p *Pattern) Extend(h2 int) (*Pattern, error) {
	if h2 < p.h {
		return nil, fmt.Errorf("failures: Extend(%d) below current horizon %d", h2, p.h)
	}
	w, w2 := rowLen(p.mode, p.h), rowLen(p.mode, h2)
	sched := make([]types.ProcSet, p.faulty.Len()*w2)
	for i, q := range p.faulty.Members() {
		row, row2 := p.sched[i*w:(i+1)*w], sched[i*w2:(i+1)*w2]
		copy(row2, row[:p.h])
		copy(row2[h2:], row[p.h:])
		if p.mode == Crash && !row[p.h-1].Empty() {
			// A crash within the horizon omits in round h (crash
			// shape), and everything stays omitted after it.
			for r := p.h; r < h2; r++ {
				row2[r] = types.FullSet(p.n).Remove(q)
			}
		}
	}
	pats, err := NewPatterns(p.mode, p.n, h2, []types.ProcSet{p.faulty}, sched)
	if err != nil {
		return nil, err
	}
	return pats[0], nil
}

// Key returns a canonical string identity for the pattern; two
// patterns with equal keys produce identical runs (for a fixed
// protocol and configuration) and identical faulty sets. Safe for
// concurrent use.
func (p *Pattern) Key() string {
	p.keyOnce.Do(func() { p.key = p.computeKey() })
	return p.key
}

func (p *Pattern) computeKey() string {
	b := make([]byte, 0, 48+p.faulty.Len()*(8+4*rowLen(p.mode, p.h)))
	b = append(b, p.mode.String()...)
	b = append(b, "/n"...)
	b = strconv.AppendInt(b, int64(p.n), 10)
	b = append(b, "/h"...)
	b = strconv.AppendInt(b, int64(p.h), 10)
	b = append(b, "/F"...)
	b = strconv.AppendUint(b, uint64(p.faulty), 16)
	appendSets := func(sets []types.ProcSet) {
		for _, s := range sets {
			b = strconv.AppendUint(b, uint64(s), 16)
			b = append(b, ',')
		}
	}
	for _, q := range p.faulty.Members() {
		beh := p.behaviorOf(q)
		if !beh.Visible() {
			continue
		}
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(q), 10)
		b = append(b, ':')
		appendSets(beh.Omit)
		// Receiving omissions get a separately prefixed section so that
		// pure sending-mode keys are byte-for-byte what they were before
		// the receiving modes existed (snapshot digests pin them).
		if nonempty(beh.Recv) {
			b = append(b, 'R')
			appendSets(beh.Recv)
		}
	}
	return string(b)
}

// String is a compact human-readable rendering.
func (p *Pattern) String() string {
	if p.faulty.Empty() {
		return fmt.Sprintf("%s: failure-free", p.mode)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: faulty=%s", p.mode, p.faulty)
	for _, q := range p.faulty.Members() {
		beh := p.behaviorOf(q)
		if !beh.Visible() {
			fmt.Fprintf(&b, " p%d[invisible]", q)
			continue
		}
		fmt.Fprintf(&b, " p%d[", q)
		first := true
		for r := 1; r <= p.h; r++ {
			om := beh.OmittedIn(types.Round(r))
			if !om.Empty() {
				if !first {
					b.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&b, "r%d omit %s", r, om)
			}
			rc := beh.RecvOmittedIn(types.Round(r))
			if !rc.Empty() {
				if !first {
					b.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&b, "r%d drop-recv %s", r, rc)
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Canonical reports whether the pattern is in the canonical form used
// by the enumerators: every receiving-omission set contains only
// nonfaulty senders. A drop on a link with a faulty sender is always
// attributed to the sender. Pure sending-mode patterns are trivially
// canonical.
func (p *Pattern) Canonical() bool {
	if !p.mode.HasReceivingFaults() {
		return true
	}
	for k := 0; k < len(p.sched); k += 2 * p.h {
		for _, s := range p.sched[k+p.h : k+2*p.h] {
			if !s.Intersect(p.faulty).Empty() {
				return false
			}
		}
	}
	return true
}

// behaviors returns a deep copy of every faulty processor's behaviour,
// in the form NewPattern takes.
func (p *Pattern) behaviors() map[types.ProcID]*Behavior {
	nb := make(map[types.ProcID]*Behavior, p.faulty.Len())
	for _, q := range p.faulty.Members() {
		b := p.behaviorOf(q)
		nb[q] = &Behavior{Omit: slices.Clone(b.Omit), Recv: slices.Clone(b.Recv)}
	}
	return nb
}

// Canonicalize rewrites a pattern into canonical form without changing
// any delivery: for every receive-drop of a message from a faulty
// sender, the drop is moved into the sender's sending-omission set.
// The faulty set is unchanged. Patterns already canonical are returned
// as-is.
func (p *Pattern) Canonicalize() (*Pattern, error) {
	if p.Canonical() {
		return p, nil
	}
	nb := p.behaviors()
	for q, b := range nb {
		for idx, s := range b.Recv {
			moved := s.Intersect(p.faulty)
			if moved.Empty() {
				continue
			}
			b.Recv[idx] = s.Minus(moved)
			for _, sender := range moved.Members() {
				sb := nb[sender]
				sb.Omit[idx] = sb.Omit[idx].Add(q)
			}
		}
	}
	return NewPattern(p.mode, p.n, p.h, p.faulty, nb)
}

// EmbedInGeneral re-expresses the pattern in the general-omission
// mode, in canonical form, with identical deliveries and an identical
// faulty set. Crash and sending-omission patterns embed unchanged
// (their schedules are already canonical general behaviours);
// receiving-omission patterns may need drops from faulty senders
// re-attributed. This is the containment map behind the mode-parity
// laws: crash ⊂ omission ⊂ general and receiving ⊂ general.
func (p *Pattern) EmbedInGeneral() (*Pattern, error) {
	gp, err := NewPattern(GeneralOmission, p.n, p.h, p.faulty, p.behaviors())
	if err != nil {
		return nil, err
	}
	return gp.Canonicalize()
}

// FaultySets enumerates all subsets of {0..n-1} of size at most t, in
// increasing size then increasing mask order, starting with the empty
// set. It visits only those sets, so its cost is their number.
func FaultySets(n, t int) []types.ProcSet {
	out := []types.ProcSet{types.EmptySet}
	full := uint64(types.FullSet(n))
	for size := 1; size <= min(t, n); size++ {
		// Gosper's hack: from the least mask of size bits, step to the
		// next larger mask with as many bits until one leaves the set.
		m := full >> (n - size)
		for {
			out = append(out, types.ProcSet(m))
			low := m & -m
			r := m + low
			if r == 0 || r > full {
				break
			}
			m = r | ((m^r)>>2)/low
		}
	}
	return out
}
