// Package types defines the primitive vocabulary shared by every other
// package in the repository: processor identifiers, binary agreement
// values, rounds/times, processor sets, and initial configurations.
//
// The model follows Halpern, Moses, and Waarts, "A Characterization of
// Eventual Byzantine Agreement" (PODC 1990), Section 2: a synchronous
// system of n >= 2 processors {0, ..., n-1} (the paper numbers them
// 1..n; we use 0-based indices), a global clock starting at time 0,
// and communication proceeding in rounds, with round k taking place
// between time k-1 and time k.
package types

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// ProcID identifies a processor. Processors are numbered 0..n-1.
type ProcID int

// Round is a communication round number. Round k (k >= 1) takes place
// between time k-1 and time k. Time values reuse this type: "time m"
// is the instant after round m has completed (time 0 is the start).
type Round int

// Value is an agreement input or decision value. The paper treats
// binary agreement, V = {0, 1}; Unset represents "no value" (the
// paper's bottom, used for undecided processors). The multivalued
// protocols of Section 2.1's general case carry votes 2, 3, ... in the
// same type; Valid and NewConfig stay binary.
type Value int8

// Agreement values.
const (
	// Unset is the absence of a value (the paper's ⊥).
	Unset Value = -1
	// Zero is the agreement value 0.
	Zero Value = 0
	// One is the agreement value 1.
	One Value = 1
)

// String returns the value's digits ("0", "1", "2", ...), or "⊥" for
// Unset.
func (v Value) String() string {
	if v < 0 {
		return "⊥"
	}
	return strconv.Itoa(int(v))
}

// Valid reports whether v is one of the two agreement values.
func (v Value) Valid() bool { return v == Zero || v == One }

// Opposite returns 1-v. It panics if v is Unset, because the paper's
// protocols only ever complement decided values.
func (v Value) Opposite() Value {
	if !v.Valid() {
		panic("types: Opposite of Unset value")
	}
	return 1 - v
}

// MaxProcs is the largest supported system size. ProcSet is a single
// 64-bit word; every algorithm in this repository is intended for the
// exhaustive small-n regime, so 64 is far beyond practical need.
const MaxProcs = 64

// ProcSet is a set of processors represented as a bitset.
// The zero value is the empty set and is ready to use.
type ProcSet uint64

// EmptySet is the empty processor set.
const EmptySet ProcSet = 0

// FullSet returns the set {0, ..., n-1}.
func FullSet(n int) ProcSet {
	if n < 0 || n > MaxProcs {
		panic(fmt.Sprintf("types: FullSet(%d) out of range", n))
	}
	if n == MaxProcs {
		return ^ProcSet(0)
	}
	return ProcSet(1)<<uint(n) - 1
}

// Singleton returns the set {p}.
func Singleton(p ProcID) ProcSet {
	if p < 0 || p >= MaxProcs {
		panic(fmt.Sprintf("types: Singleton(%d) out of range", p))
	}
	return ProcSet(1) << uint(p)
}

// SetOf returns the set containing exactly the given processors.
func SetOf(ps ...ProcID) ProcSet {
	var s ProcSet
	for _, p := range ps {
		s = s.Add(p)
	}
	return s
}

// Contains reports whether p is in the set.
func (s ProcSet) Contains(p ProcID) bool {
	if p < 0 || p >= MaxProcs {
		return false
	}
	return s&(ProcSet(1)<<uint(p)) != 0
}

// Add returns the set with p added.
func (s ProcSet) Add(p ProcID) ProcSet { return s | Singleton(p) }

// Remove returns the set with p removed.
func (s ProcSet) Remove(p ProcID) ProcSet {
	if p < 0 || p >= MaxProcs {
		return s
	}
	return s &^ (ProcSet(1) << uint(p))
}

// Union returns s ∪ o.
func (s ProcSet) Union(o ProcSet) ProcSet { return s | o }

// Intersect returns s ∩ o.
func (s ProcSet) Intersect(o ProcSet) ProcSet { return s & o }

// Minus returns s \ o.
func (s ProcSet) Minus(o ProcSet) ProcSet { return s &^ o }

// Empty reports whether the set has no members.
func (s ProcSet) Empty() bool { return s == 0 }

// Len returns the number of members.
func (s ProcSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Members returns the members in increasing order.
func (s ProcSet) Members() []ProcID {
	out := make([]ProcID, 0, s.Len())
	for w := uint64(s); w != 0; w &= w - 1 {
		out = append(out, ProcID(bits.TrailingZeros64(w)))
	}
	return out
}

// ForEach calls fn on each member in increasing order; it stops early
// if fn returns false.
func (s ProcSet) ForEach(fn func(ProcID) bool) {
	for w := uint64(s); w != 0; w &= w - 1 {
		if !fn(ProcID(bits.TrailingZeros64(w))) {
			return
		}
	}
}

// SubsetOf reports whether every member of s is in o.
func (s ProcSet) SubsetOf(o ProcSet) bool { return s&^o == 0 }

// String formats the set as "{0,2,5}".
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(p ProcID) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", p)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Config is an initial configuration: the vector of initial values,
// one per processor. The paper calls this the system's initial
// configuration (Section 2.3). Configs are immutable after creation;
// treat the slice as read-only.
type Config []Value

// NewConfig builds a configuration from values, validating each.
func NewConfig(vals ...Value) (Config, error) {
	if len(vals) < 2 {
		return nil, fmt.Errorf("types: config needs n >= 2 processors, got %d", len(vals))
	}
	if len(vals) > MaxProcs {
		return nil, fmt.Errorf("types: config with %d processors exceeds MaxProcs=%d", len(vals), MaxProcs)
	}
	c := make(Config, len(vals))
	for i, v := range vals {
		if !v.Valid() {
			return nil, fmt.Errorf("types: processor %d has invalid initial value %v", i, v)
		}
		c[i] = v
	}
	return c, nil
}

// ConfigFromBits builds the n-processor configuration whose processor
// i has initial value bit i of mask. It is the standard enumeration
// order used throughout the repository: mask ranges over [0, 2^n).
func ConfigFromBits(n int, mask uint64) Config {
	c := make(Config, n)
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			c[i] = One
		} else {
			c[i] = Zero
		}
	}
	return c
}

// N returns the number of processors.
func (c Config) N() int { return len(c) }

// AllEqual reports whether every processor has the same initial value,
// returning that value. This is the hypothesis of the validity
// condition (Section 2.1, condition 3).
func (c Config) AllEqual() (Value, bool) {
	if len(c) == 0 {
		return Unset, false
	}
	v := c[0]
	for _, u := range c[1:] {
		if u != v {
			return Unset, false
		}
	}
	return v, true
}

// HasValue reports whether some processor has initial value v. The
// basic facts ∃0 and ∃1 of Section 3.1 are HasValue(Zero) and
// HasValue(One) of the run's configuration.
func (c Config) HasValue(v Value) bool {
	for _, u := range c {
		if u == v {
			return true
		}
	}
	return false
}

// Bits returns the bitmask encoding of the configuration (inverse of
// ConfigFromBits).
func (c Config) Bits() uint64 {
	var m uint64
	for i, v := range c {
		if v == One {
			m |= 1 << uint(i)
		}
	}
	return m
}

// String formats the configuration as e.g. "0110".
func (c Config) String() string {
	var b strings.Builder
	for _, v := range c {
		b.WriteString(v.String())
	}
	return b.String()
}

// Params bundles the static parameters of an agreement instance:
// n processors, at most t of which may be faulty.
type Params struct {
	N int // number of processors (n >= 2)
	T int // maximum number of faulty processors (0 <= t < n)
}

// Validate checks the standard constraints.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("types: n=%d, need n >= 2", p.N)
	}
	if p.N > MaxProcs {
		return fmt.Errorf("types: n=%d exceeds MaxProcs=%d", p.N, MaxProcs)
	}
	if p.T < 0 || p.T >= p.N {
		return fmt.Errorf("types: t=%d out of range [0,%d)", p.T, p.N)
	}
	return nil
}

// Decision records an irrevocable decision event: processor p decided
// value v at time m (i.e., after round m).
type Decision struct {
	Proc  ProcID
	Value Value
	Time  Round
}

// String formats the decision.
func (d Decision) String() string {
	return fmt.Sprintf("proc %d decides %s at time %d", d.Proc, d.Value, d.Time)
}
