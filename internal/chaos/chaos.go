// Package chaos plans deterministic network-fault injection for the
// resilient TCP runtime (nettransport.RunResilient).
//
// A Plan is built from a seed and is legal by construction: it first
// draws a failure pattern that is valid for the run's mode and fault
// bound — the *intended* pattern — and then assigns each intended
// omission a wire-level mechanism that realizes it: silently dropping
// the frame (the receiver's round deadline expires), delaying it past
// the deadline (it arrives stale and is discarded), truncating it and
// tearing the connection down mid-frame, killing the connection
// outright, or suppressing a whole one-way partition interval. On top
// of the faults it sprinkles benign mischief (duplicated frames) that
// a correct runtime must absorb without any visible effect.
//
// The paper's semantics make all of these the same thing: a required
// message that does not arrive in its round is an omission, whoever
// mangled the wire — attributed to the victim sender in the crash and
// sending-omission modes, to the victim receiver in the
// receiving-omission mode, and to a minimal endpoint cover in the
// general-omission mode. The chaos planner confines faults to links
// incident to at most t victims and, in crash mode, to crash-shaped
// schedules, so the pattern reconstructed from the run's observations
// (failures.Observation) is again a legal pattern of the mode — which
// is what lets every chaos run be replayed and cross-checked on the
// deterministic engine.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// Mechanism is how a planned omission is realized on the wire.
type Mechanism uint8

// Wire-level fault mechanisms.
const (
	// None delivers the frame normally.
	None Mechanism = iota
	// Drop suppresses the frame; the receiver's deadline expires.
	Drop
	// Delay holds the frame past the receiver's deadline; it arrives
	// stale and is discarded. (Under extreme scheduling it may still
	// arrive in time — then no omission occurred and the reconstructed
	// pattern records the delivery; either outcome is checked.)
	Delay
	// Truncate writes a torn frame (header promising more bytes than
	// sent) and then kills the connection mid-frame.
	Truncate
	// Kill closes the connection without writing. In omission mode the
	// sender reconnects with backoff; in crash mode the link stays
	// down, as does every other link of the crashed victim.
	Kill
	// Partition suppresses the frame as part of a one-way partition:
	// a contiguous interval of rounds on one directed link.
	Partition
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	case Kill:
		return "kill"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("Mechanism(%d)", uint8(m))
	}
}

// ParseMechanism parses a mechanism name (as used by ebarun -chaos).
func ParseMechanism(s string) (Mechanism, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "drop":
		return Drop, nil
	case "delay":
		return Delay, nil
	case "truncate":
		return Truncate, nil
	case "kill":
		return Kill, nil
	case "partition":
		return Partition, nil
	default:
		return None, fmt.Errorf("chaos: unknown mechanism %q (want drop|delay|truncate|kill|partition)", s)
	}
}

// Action is the planned treatment of one frame (sender, round, dst).
type Action struct {
	// Mech realizes an intended omission; None means deliver.
	Mech Mechanism
	// Dup duplicates a delivered frame; the receiver must dedupe.
	Dup bool
}

type key struct {
	sender types.ProcID
	round  types.Round
	dst    types.ProcID
}

// Plan is a complete, seeded chaos schedule for one run.
type Plan struct {
	Seed int64
	Mode failures.Mode
	N    int
	H    int

	// Intended is the legal failure pattern the plan sets out to
	// realize. The run's *reconstructed* pattern normally equals it,
	// but may differ where timing intervenes (a delayed frame that
	// squeaked in, extra omissions while a killed link reconnects);
	// in omission mode every such deviation is again legal.
	Intended *failures.Pattern

	acts     map[key]Action
	silenced map[types.ProcID]types.Round
}

// Action returns the planned treatment of sender's round-r frame to
// dst. The zero Action (deliver, no duplicate) is the default.
func (p *Plan) Action(sender types.ProcID, r types.Round, dst types.ProcID) Action {
	if p == nil {
		return Action{}
	}
	return p.acts[key{sender, r, dst}]
}

// SilencedAfter reports whether sender is a crash-mode victim realized
// by killing its connections: after its round-k sends it half-closes
// every outgoing link and goes silent for the rest of the run.
func (p *Plan) SilencedAfter(sender types.ProcID) (types.Round, bool) {
	if p == nil {
		return 0, false
	}
	k, ok := p.silenced[sender]
	return k, ok
}

// Victims returns the processors the plan injects faults into.
func (p *Plan) Victims() types.ProcSet {
	if p == nil {
		return types.EmptySet
	}
	return p.Intended.Faulty()
}

// Mechanisms counts the planned fault actions by mechanism. Benign
// duplicates are not faults and are not counted.
func (p *Plan) Mechanisms() map[Mechanism]int {
	counts := make(map[Mechanism]int)
	if p == nil {
		return counts
	}
	for _, a := range p.acts {
		if a.Mech != None {
			counts[a.Mech]++
		}
	}
	return counts
}

// String summarizes the plan.
func (p *Plan) String() string {
	if p == nil || p.Intended.Faulty().Empty() {
		return "chaos: no faults planned"
	}
	counts := p.Mechanisms()
	dups := 0
	for _, a := range p.acts {
		if a.Dup {
			dups++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos(seed=%d): victims=%s", p.Seed, p.Intended.Faulty())
	for _, m := range []Mechanism{Drop, Delay, Truncate, Kill, Partition} {
		if counts[m] > 0 {
			fmt.Fprintf(&b, " %s×%d", m, counts[m])
		}
	}
	if dups > 0 {
		fmt.Fprintf(&b, " dup×%d", dups)
	}
	fmt.Fprintf(&b, " | intended %s", p.Intended)
	return b.String()
}

// New builds a seeded chaos plan for an (n, t) system over h rounds.
// allowed restricts the fault mechanisms; empty means all mechanisms
// legal for the mode (crash mode permits only Drop and Kill — the
// deterministic realizations that preserve crash shape; Delay,
// Truncate, and Partition faults need the freedom of the omission
// mode).
func New(mode failures.Mode, params types.Params, h int, seed int64, allowed ...Mechanism) (*Plan, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if !mode.Valid() {
		return nil, fmt.Errorf("chaos: %w %v", failures.ErrUnknownMode, mode)
	}
	if h < 1 {
		return nil, fmt.Errorf("chaos: horizon %d < 1", h)
	}
	if len(allowed) == 0 {
		if mode == failures.Crash {
			allowed = []Mechanism{Drop, Kill}
		} else {
			allowed = []Mechanism{Drop, Delay, Truncate, Kill, Partition}
		}
	}
	for _, m := range allowed {
		switch m {
		case Drop, Delay, Truncate, Kill, Partition:
		default:
			return nil, fmt.Errorf("chaos: %v is not an injectable mechanism", m)
		}
		if mode == failures.Crash && m != Drop && m != Kill {
			return nil, fmt.Errorf("chaos: mechanism %v cannot guarantee crash shape (crash mode allows drop and kill)", m)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	p := &Plan{
		Seed:     seed,
		Mode:     mode,
		N:        params.N,
		H:        h,
		acts:     make(map[key]Action),
		silenced: make(map[types.ProcID]types.Round),
	}

	// Pick 1..t distinct victims (none when t = 0).
	var victims types.ProcSet
	if params.T > 0 {
		nv := 1 + rng.Intn(params.T)
		for victims.Len() < nv {
			victims = victims.Add(types.ProcID(rng.Intn(params.N)))
		}
	}

	behavior := make(map[types.ProcID]*failures.Behavior)
	for _, v := range victims.Members() {
		switch mode {
		case failures.Crash:
			p.planCrashVictim(rng, v, h, allowed, behavior)
		case failures.Omission:
			p.planDirectedVictim(rng, v, h, false, allowed, behavior)
		case failures.ReceivingOmission:
			p.planDirectedVictim(rng, v, h, true, allowed, behavior)
		case failures.GeneralOmission:
			p.planGeneralVictim(rng, v, h, victims, allowed, behavior)
		default:
			// Unreachable: mode.Valid() was checked above; keep the
			// switch exhaustive so a future mode cannot silently fall
			// into another planner.
			return nil, fmt.Errorf("chaos: %w %v", failures.ErrUnknownMode, mode)
		}
	}

	pat, err := failures.NewPattern(mode, params.N, h, victims, behavior)
	if err != nil {
		return nil, fmt.Errorf("chaos: planned pattern illegal: %w", err)
	}
	p.Intended = pat

	// Benign duplicates on delivered frames, anywhere in the mesh.
	for s := 0; s < params.N; s++ {
		for d := 0; d < params.N; d++ {
			if s == d {
				continue
			}
			for r := 1; r <= h; r++ {
				k := key{types.ProcID(s), types.Round(r), types.ProcID(d)}
				if p.acts[k].Mech == None && rng.Float64() < 0.08 {
					a := p.acts[k]
					a.Dup = true
					p.acts[k] = a
				}
			}
		}
	}
	return p, nil
}

// planCrashVictim draws a crash round k and a delivery set for round
// k, realized either by dropping frames (the receivers' deadlines
// expire) or by killing every outgoing connection after the round-k
// sends (receivers see EOF immediately). Both keep crash shape
// exactly; k = h+1 yields an invisible crash.
func (p *Plan) planCrashVictim(rng *rand.Rand, v types.ProcID, h int, allowed []Mechanism, behavior map[types.ProcID]*failures.Behavior) {
	k := 1 + rng.Intn(h+1)
	if k > h {
		behavior[v] = &failures.Behavior{} // invisible crash
		return
	}
	others := types.FullSet(p.N).Remove(v)
	allowedSet := types.ProcSet(rng.Uint64()) & others
	mech := allowed[rng.Intn(len(allowed))]
	behavior[v] = failures.CrashBehavior(v, p.N, h, k, allowedSet)
	for _, dst := range others.Minus(allowedSet).Members() {
		p.acts[key{v, types.Round(k), dst}] = Action{Mech: mech}
	}
	for r := k + 1; r <= h; r++ {
		for _, dst := range others.Members() {
			p.acts[key{v, types.Round(r), dst}] = Action{Mech: mech}
		}
	}
	if mech == Kill {
		p.silenced[v] = types.Round(k)
	}
}

// planDirectedVictim draws an arbitrary omission schedule on the
// victim's outbound links (its sending omissions) or, when inbound, on
// its inbound links (its receiving omissions): possibly a one-way
// partition interval on one link, plus independent per-frame
// omissions, each realized by a mechanism drawn from allowed. The wire
// mechanisms are the same in both directions — a frame on the link is
// dropped, delayed, truncated, or its connection killed — only the
// attribution changes.
func (p *Plan) planDirectedVictim(rng *rand.Rand, v types.ProcID, h int, inbound bool, allowed []Mechanism, behavior map[types.ProcID]*failures.Behavior) {
	others := types.FullSet(p.N).Remove(v)
	sets := make([]types.ProcSet, h)
	// frame is the round-r frame between v and peer in the planned
	// direction.
	frame := func(peer types.ProcID, r int) key {
		if inbound {
			return key{peer, types.Round(r), v}
		}
		return key{v, types.Round(r), peer}
	}

	pointwise, hasPartition := splitPartition(allowed)
	if hasPartition && rng.Float64() < 0.5 {
		members := others.Members()
		peer := members[rng.Intn(len(members))]
		r0 := 1 + rng.Intn(h)
		for r := r0; r <= h; r++ {
			sets[r-1] = sets[r-1].Add(peer)
			p.acts[frame(peer, r)] = Action{Mech: Partition}
		}
	}
	if len(pointwise) > 0 {
		for r := 1; r <= h; r++ {
			for _, peer := range others.Members() {
				if sets[r-1].Contains(peer) || rng.Float64() >= 0.3 {
					continue
				}
				sets[r-1] = sets[r-1].Add(peer)
				p.acts[frame(peer, r)] = Action{Mech: pointwise[rng.Intn(len(pointwise))]}
			}
		}
	}
	if inbound {
		behavior[v] = &failures.Behavior{Recv: sets}
	} else {
		behavior[v] = &failures.Behavior{Omit: sets}
	}
}

// splitPartition returns the mechanisms of allowed that realize a
// single frame's omission, and whether Partition is among them.
func splitPartition(allowed []Mechanism) (pointwise []Mechanism, hasPartition bool) {
	for _, m := range allowed {
		if m != Partition {
			pointwise = append(pointwise, m)
		}
	}
	return pointwise, len(pointwise) < len(allowed)
}

// planGeneralVictim combines both directions: independent per-frame
// sending omissions on the victim's outbound links and receive-drops
// on its inbound links. Inbound drops are restricted to nonvictim
// senders so the intended pattern is canonical by construction —
// a drop on a link between two victims is planned (and reconstructed)
// as the sender's omission.
func (p *Plan) planGeneralVictim(rng *rand.Rand, v types.ProcID, h int, victims types.ProcSet, allowed []Mechanism, behavior map[types.ProcID]*failures.Behavior) {
	others := types.FullSet(p.N).Remove(v)
	recvBase := others.Minus(victims)
	b := &failures.Behavior{
		Omit: make([]types.ProcSet, h),
		Recv: make([]types.ProcSet, h),
	}

	pointwise, hasPartition := splitPartition(allowed)
	if hasPartition && rng.Float64() < 0.5 {
		members := others.Members()
		peer := members[rng.Intn(len(members))]
		r0 := 1 + rng.Intn(h)
		inbound := recvBase.Contains(peer) && rng.Float64() < 0.5
		for r := r0; r <= h; r++ {
			if inbound {
				b.Recv[r-1] = b.Recv[r-1].Add(peer)
				p.acts[key{peer, types.Round(r), v}] = Action{Mech: Partition}
			} else {
				b.Omit[r-1] = b.Omit[r-1].Add(peer)
				p.acts[key{v, types.Round(r), peer}] = Action{Mech: Partition}
			}
		}
	}
	if len(pointwise) > 0 {
		for r := 1; r <= h; r++ {
			for _, dst := range others.Members() {
				if b.Omit[r-1].Contains(dst) || rng.Float64() >= 0.2 {
					continue
				}
				b.Omit[r-1] = b.Omit[r-1].Add(dst)
				p.acts[key{v, types.Round(r), dst}] = Action{Mech: pointwise[rng.Intn(len(pointwise))]}
			}
			for _, src := range recvBase.Members() {
				if b.Recv[r-1].Contains(src) || rng.Float64() >= 0.2 {
					continue
				}
				b.Recv[r-1] = b.Recv[r-1].Add(src)
				p.acts[key{src, types.Round(r), v}] = Action{Mech: pointwise[rng.Intn(len(pointwise))]}
			}
		}
	}
	behavior[v] = b
}
