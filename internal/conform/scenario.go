// Package conform is the randomized conformance harness: it generates
// seeded scenarios (system parameters, an initial configuration, and a
// chaos fault plan) and checks, on every one, that the repository's
// three executions of the theory (the live TCP runtime, its replay on
// the round engine, and the query engine) agree and that the paper's
// logical laws hold.
//
// The three pillars, in the order a scenario passes through them:
//
//  1. Differential: the scenario's protocol runs on the live resilient
//     TCP runtime under the chaos plan; the reconstructed fault
//     pattern is replayed on the deterministic sim engine (traces must
//     be identical, sim.DiffTraces); and the decisions the knowledge
//     layer prescribes for the reconstructed run — looked up in the
//     store-backed enumerated system — must match the live decisions
//     processor for processor.
//  2. Metamorphic / property-based: a catalog of epistemic laws
//     (operator containments, fixed-point characterizations of
//     Prop 3.2 / Cor 3.3, monotonicity of C□ under run restriction,
//     sequential-vs-parallel digest equality, and codec round-trips)
//     is machine-checked over the scenario's exhaustive system, both
//     with a direct evaluator and — for a signature subset — through
//     the service query engine over a store snapshot, asserting the
//     two agree point count for point count.
//  3. Oracle conformance: the two-step optimization construction of
//     Prop 5.1 / Thm 5.2 is applied to seed protocols and its output
//     must pass the Thm 5.3 optimality oracle, dominate its input, and
//     be a fixed point of the construction.
//
// Violations are emitted as JSONL corpus records carrying the
// scenario's seed, so any failure replays exactly with
// `ebaconform -seed <seed> -count 1`.
package conform

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/types"
)

// Scenario is one seeded conformance case. Everything below is a pure
// function of (Seed, Filter), so a scenario replays from its seed plus
// the run's mode filter (empty filter = all modes).
type Scenario struct {
	Seed    int64
	N, T    int
	Mode    failures.Mode
	Horizon int
	Config  types.Config
	// ChaosSeed seeds the chaos plan of the differential pillar; it is
	// drawn from the scenario RNG so distinct scenarios sharing a
	// system key still exercise distinct fault plans.
	ChaosSeed int64
	// Filter is the mode filter the scenario was derived under (nil =
	// all modes). It is part of the derivation, so replay hints carry
	// it as `-mode a,b`.
	Filter []failures.Mode
}

// NewScenario derives the scenario for a seed over all failure modes.
func NewScenario(seed int64) Scenario { return NewScenarioIn(seed, nil) }

// NewScenarioIn derives the scenario for a seed, drawing the failure
// mode from modes (nil or empty = all of failures.Modes). The
// parameter space is bounded per mode so every scenario's exhaustive
// system enumerates in memory: n in 2..4, t in 0..2, horizons 2..3.
// The sending- and receiving-omission modes are capped where their
// pattern count explodes ((2^(n-1))^h per faulty processor), and the
// general-omission mode — (2^(n-1)·2^(n-f))^h per faulty processor —
// is held to n ≤ 3, t ≤ 1, with the longer horizon only at n = 2.
func NewScenarioIn(seed int64, modes []failures.Mode) Scenario {
	var filter []failures.Mode
	if len(modes) == 0 {
		modes = failures.Modes
	} else {
		filter = modes
	}
	rng := rand.New(rand.NewSource(seed))
	mode := modes[rng.Intn(len(modes))]
	var n, t, h int
	switch mode {
	case failures.GeneralOmission:
		n = 2 + rng.Intn(2)
		t = rng.Intn(2)
		h = 2
		if n == 2 {
			h = 2 + rng.Intn(2)
		}
	case failures.Omission, failures.ReceivingOmission:
		n = 2 + rng.Intn(3)
		maxT := n - 1
		if maxT > 2 {
			maxT = 2
		}
		if n == 4 {
			maxT = 1
		}
		t = rng.Intn(maxT + 1)
		h = 2
		if n <= 3 && t <= 1 {
			h = 2 + rng.Intn(2)
		}
	default: // crash
		n = 2 + rng.Intn(3)
		maxT := n - 1
		if maxT > 2 {
			maxT = 2
		}
		t = rng.Intn(maxT + 1)
		h = 2
		if !(n == 4 && t == 2) {
			h = 2 + rng.Intn(2)
		}
	}
	cfg := types.ConfigFromBits(n, rng.Uint64()&((1<<uint(n))-1))
	return Scenario{
		Seed:      seed,
		N:         n,
		T:         t,
		Mode:      mode,
		Horizon:   h,
		Config:    cfg,
		ChaosSeed: rng.Int63(),
		Filter:    filter,
	}
}

// Params returns the scenario's (n, t).
func (s Scenario) Params() types.Params { return types.Params{N: s.N, T: s.T} }

// Key is the store key of the scenario's exhaustive system. Keys of
// the omission family (sending, receiving, general) carry the service
// layer's default limit so harness checks and engine queries share one
// snapshot; under the generator's caps the limit is far above the true
// pattern count, so the enumeration is exhaustive either way.
func (s Scenario) Key() store.Key {
	k := store.Key{N: s.N, T: s.T, Mode: s.Mode, Horizon: s.Horizon}
	if s.Mode != failures.Crash {
		k.Limit = service.DefaultOmissionLimit
	}
	return k
}

// Pair is the decision pair the differential pillar runs live: the
// mode's concrete protocol from the paper, in predicate-backed form so
// the wire adapter can run it (P0opt for crash, Chain0 for the whole
// omission family — its chain predicate reads only the local view, so
// it is well-defined whichever side of a link drops the message).
func (s Scenario) Pair() fip.Pair {
	if s.Mode == failures.Crash {
		return protocols.P0OptPair()
	}
	return protocols.Chain0SyntacticPair()
}

// Desc renders the scenario compactly for logs and corpus records.
func (s Scenario) Desc() string {
	return fmt.Sprintf("seed=%d %s n=%d t=%d h=%d cfg=%s", s.Seed, s.Mode, s.N, s.T, s.Horizon, s.Config)
}

// ModesArg renders a mode filter as the ebaconform -mode argument.
func ModesArg(modes []failures.Mode) string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.String()
	}
	return strings.Join(names, ",")
}
