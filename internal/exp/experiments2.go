package exp

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// E18MessageSize quantifies the Section 6.1 efficiency remark: P0opt
// "can be implemented using messages of linear size" while the
// full-information protocol relays entire views. The table reports,
// per round of a failure-free run, the naive view-tree size
// (exponential in the round), the hash-consed DAG size (the codec
// shares subviews, collapsing the blowup to polynomial), the
// marshaled bytes actually sent by FIPWire, and P0opt's linear
// message.
func E18MessageSize() (*Result, error) {
	r := &Result{ID: "E18", Title: "Message sizes: full information vs P0opt (Sec 6.1)",
		Claim: "P0opt messages stay linear in n; full-information views grow with every round"}
	return timer(r, func() error {
		tbl := &Table{Header: []string{"n", "round", "view tree nodes", "DAG nodes", "wire bytes", "P0opt bytes"}}
		pass := true
		for _, n := range []int{4, 6} {
			in := views.NewInterner(n)
			cfg := types.ConfigFromBits(n, (1<<uint(n))-2)
			const h = 4
			run := views.BuildRun(in, cfg, failures.FailureFree(failures.Omission, n, h))
			var prevBytes int
			for m := 1; m <= h; m++ {
				id := run[m][0]
				tree := treeNodes(in, id, map[views.ID]uint64{})
				dag := dagNodes(in, id)
				wire := len(views.Marshal(in, id))
				p0optBytes := n // one value per processor
				if wire <= prevBytes {
					pass = false
				}
				prevBytes = wire
				if wire <= p0optBytes && m > 1 {
					pass = false
				}
				tbl.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%d", m),
					fmt.Sprintf("%d", tree), fmt.Sprintf("%d", dag),
					fmt.Sprintf("%d", wire), fmt.Sprintf("%d", p0optBytes))
			}
		}
		r.Table = tbl
		r.Pass = pass
		r.Summary = "full-information messages grow every round; the DAG codec collapses the exponential tree; P0opt stays at n bytes"
		return nil
	})
}

// treeNodes counts the nodes of the view unfolded as a tree (no
// sharing) — the naive encoding's size.
func treeNodes(in *views.Interner, id views.ID, memo map[views.ID]uint64) uint64 {
	if v, ok := memo[id]; ok {
		return v
	}
	var total uint64 = 1
	for j := 0; j < in.N(); j++ {
		if ch := in.From(id, types.ProcID(j)); ch != views.NoView {
			total += treeNodes(in, ch, memo)
		}
	}
	memo[id] = total
	return total
}

// dagNodes counts distinct subviews (the hash-consed representation).
func dagNodes(in *views.Interner, id views.ID) int {
	seen := map[views.ID]bool{}
	var walk func(views.ID)
	walk = func(v views.ID) {
		if seen[v] {
			return
		}
		seen[v] = true
		for j := 0; j < in.N(); j++ {
			if ch := in.From(v, types.ProcID(j)); ch != views.NoView {
				walk(ch)
			}
		}
	}
	walk(id)
	return len(seen)
}

// E15Halting quantifies the Section 2.3 halting remark: stopping one
// round after deciding preserves agreement and validity and slashes
// message complexity, at the cost of occasionally later decisions
// (a halted peer is indistinguishable from a fresh crash).
func E15Halting() (*Result, error) {
	r := &Result{ID: "E15", Title: "Halting one round after deciding (Sec 2.3)",
		Claim: "halting preserves correctness and saves most messages"}
	return timer(r, func() error {
		const n, t, h = 4, 1, 5
		params := types.Params{N: n, T: t}
		pats, err := failures.EnumCrash(n, t, h)
		if err != nil {
			return err
		}
		type agg struct {
			sent, delivered int
			undecided       int
			maxRound        types.Round
			disagreements   int
		}
		measure := func(proto sim.Protocol) (agg, error) {
			var a agg
			for _, pat := range pats {
				for mask := uint64(0); mask < 1<<n; mask++ {
					cfg := types.ConfigFromBits(n, mask)
					tr, err := sim.Run(proto, params, cfg, pat)
					if err != nil {
						return a, err
					}
					a.sent += tr.Sent
					a.delivered += tr.Delivered
					var saw [2]bool
					for _, proc := range pat.Nonfaulty().Members() {
						v, at, ok := tr.DecisionOf(proc)
						if !ok {
							a.undecided++
							continue
						}
						saw[v] = true
						if at > a.maxRound {
							a.maxRound = at
						}
						if want, same := cfg.AllEqual(); same && v != want {
							a.disagreements++
						}
					}
					if saw[0] && saw[1] {
						a.disagreements++
					}
				}
			}
			return a, nil
		}
		full, err := measure(protocols.P0Opt())
		if err != nil {
			return err
		}
		halt, err := measure(protocols.P0OptHalting())
		if err != nil {
			return err
		}
		tbl := &Table{Header: []string{"variant", "sent", "delivered", "max round", "undecided", "violations"}}
		for _, row := range []struct {
			name string
			a    agg
		}{{"P0opt", full}, {"P0opt+halt", halt}} {
			tbl.Add(row.name, fmt.Sprintf("%d", row.a.sent), fmt.Sprintf("%d", row.a.delivered),
				fmt.Sprintf("%d", row.a.maxRound), fmt.Sprintf("%d", row.a.undecided),
				fmt.Sprintf("%d", row.a.disagreements))
		}
		savings := 1 - float64(halt.sent)/float64(full.sent)
		r.Table = tbl
		r.Pass = halt.undecided == 0 && halt.disagreements == 0 && full.disagreements == 0 &&
			halt.sent < full.sent
		r.Summary = fmt.Sprintf("halting saves %.0f%% of messages with zero violations (max round %d vs %d)",
			savings*100, halt.maxRound, full.maxRound)
		return nil
	})
}
