package system

import (
	"encoding/binary"

	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// prefix is one node of the builder's trie of run prefixes: a sequence
// of delivery matrices for rounds 1..d, shared by every pattern that
// behaves that way for its first d rounds. A prefix and an initial
// configuration determine every processor's view through time d, so
// processor p's view at time d+1 is a function of the prefix, the
// configuration and the set of senders p hears from in round d+1 —
// the table next, which costs one array read where views.BuildRun
// pays a hash-cons lookup.
type prefix struct {
	// slot[p<<n|heard] numbers, from 1, the (processor, senders heard)
	// pairs some pattern has extended this prefix with; 0 means none
	// has yet. Numbering them as they appear keeps next proportional to
	// the rows actually built under the prefix rather than to 2^n.
	slot []int32
	// next[(k-1)<<n|cfg] is 1 + the view slot k's processor holds after
	// hearing slot k's senders in configuration cfg; 0 means not
	// computed yet.
	next []views.ID
}

// buildRuns fills tbl.Views for a table laid out by NewRunTable: the
// views of every run of every pattern, interned into in.
//
// It walks the canonical order of the per-run build (pattern-major,
// configuration-minor, round, processor) and asks the interner exactly
// when a prefix table has no answer. A filled entry records an
// Interner.Extend call made earlier with the same owner view and the
// same received views, so every lookup it saves would have been an
// interner hit, and hits assign no IDs: Leaf and Extend still see
// their first encounters in the order views.BuildRun run by run
// produces, and view IDs — hence snapshot bytes and digests — are the
// same.
//
// Prefixes are keyed by the delivery matrices read off
// Pattern.Delivers, sending and receiving omissions both, never by a
// pattern's place in its list, so the list may repeat patterns or come
// in any order.
func buildRuns(in *views.Interner, h int, tbl *RunTable) {
	n := in.N()
	nconfigs := 1 << uint(n)
	stride := (h + 1) * n

	prefixes := []*prefix{{slot: make([]int32, n<<uint(n))}}
	// children maps parent index ∥ delivery matrix to the child's index.
	children := make(map[string]int32)
	var key []byte
	unfilled := make([]views.ID, nconfigs)

	// Per pattern, for round r and processor p at [(r-1)*n+p]: the
	// senders p hears from, and where in at[r-1].next its slot starts.
	heard := make([]types.ProcSet, h*n)
	slotAt := make([]int, h*n)
	// at[r-1] is the prefix of rounds 1..r-1, which round r extends.
	at := make([]*prefix, h)

	leaves := make([]views.ID, 2*n) // 1 + Leaf(p, v) at [2p+v]; 0 = not asked yet
	received := make([]views.ID, n)

	for pi, pat := range tbl.Patterns {
		for r := 1; r <= h; r++ {
			for p := 0; p < n; p++ {
				var hs types.ProcSet
				for j := 0; j < n; j++ {
					if j != p && pat.Delivers(types.ProcID(j), types.Round(r), types.ProcID(p)) {
						hs = hs.Add(types.ProcID(j))
					}
				}
				heard[(r-1)*n+p] = hs
			}
		}

		cur := int32(0)
		for r := 1; r <= h; r++ {
			pre := prefixes[cur]
			at[r-1] = pre
			matrix := heard[(r-1)*n : r*n]
			for p, hs := range matrix {
				s := &pre.slot[p<<uint(n)|int(hs)]
				if *s == 0 {
					pre.next = append(pre.next, unfilled...)
					*s = int32(len(pre.next) / nconfigs)
				}
				slotAt[(r-1)*n+p] = int(*s-1) * nconfigs
			}
			if r == h {
				break // the last round's rows need no prefix of their own
			}
			key = binary.LittleEndian.AppendUint32(key[:0], uint32(cur))
			for _, hs := range matrix {
				key = binary.LittleEndian.AppendUint64(key, uint64(hs))
			}
			child, ok := children[string(key)]
			if !ok {
				child = int32(len(prefixes))
				prefixes = append(prefixes, &prefix{slot: make([]int32, n<<uint(n))})
				children[string(key)] = child
			}
			cur = child
		}

		for cfg := 0; cfg < nconfigs; cfg++ {
			run := tbl.Views[(pi*nconfigs+cfg)*stride:][:stride]
			for p := 0; p < n; p++ {
				v := cfg >> uint(p) & 1
				if leaves[2*p+v] == 0 {
					leaves[2*p+v] = in.Leaf(types.ProcID(p), types.Value(v)) + 1
				}
				run[p] = leaves[2*p+v] - 1
			}
			for r := 1; r <= h; r++ {
				prev, row := run[(r-1)*n:r*n], run[r*n:(r+1)*n]
				next := at[r-1].next
				for p := 0; p < n; p++ {
					e := &next[slotAt[(r-1)*n+p]+cfg]
					if *e == 0 {
						hs := heard[(r-1)*n+p]
						for j := range received {
							received[j] = views.NoView
							if hs.Contains(types.ProcID(j)) {
								received[j] = prev[j]
							}
						}
						*e = in.Extend(types.ProcID(p), prev[p], received) + 1
					}
					row[p] = *e - 1
				}
			}
		}
	}
}
