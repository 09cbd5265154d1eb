package bench

import (
	"bytes"
	"fmt"
	"runtime"

	"github.com/eventual-agreement/eba/internal/core"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/protocols"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// ebacheckLimit is ebacheck's default -limit.
const ebacheckLimit = 2_000_000

// enumerate is the pattern enumeration ebacheck's builder performs.
func enumerate(k Key, mode failures.Mode) ([]*failures.Pattern, error) {
	switch mode {
	case failures.Crash:
		return failures.EnumCrash(k.N, k.T, k.H)
	case failures.Omission:
		return failures.EnumOmission(k.N, k.T, k.H, ebacheckLimit)
	case failures.ReceivingOmission:
		return failures.EnumReceiving(k.N, k.T, k.H, ebacheckLimit)
	case failures.GeneralOmission:
		return failures.EnumGeneral(k.N, k.T, k.H, ebacheckLimit)
	}
	return nil, fmt.Errorf("bench: %w %v", failures.ErrUnknownMode, mode)
}

// replica is what one in-process run of the ebacheck pipeline leaves
// behind for the per-layer measurements that follow it.
type replica struct {
	pats   []*failures.Pattern
	sys    *system.System
	stdout []byte
	// allocBytes and allocs are what system.FromPatterns allocated.
	allocBytes, allocs uint64
}

// replicaCheck is `ebacheck -parallel 1` for one key, in process, with
// a span around every call into a layer's public functions. It prints
// what ebacheck prints, so the caller can hold it to the same golden:
// a replica that drifts from cmd/ebacheck fails instead of measuring
// something else. rec may be nil (the untraced reference run).
func replicaCheck(rec *Recorder, parent int, k Key) (*replica, error) {
	mode, err := failures.ParseMode(k.Mode)
	if err != nil {
		return nil, err
	}
	params := types.Params{N: k.N, T: k.T}
	out := &bytes.Buffer{}
	rep := &replica{}
	fmt.Fprintf(out, "enumerating %s system n=%d t=%d h=%d ...\n", mode, k.N, k.T, k.H)

	rec.Do(parent, "failures.enum", func(int) { rep.pats, err = enumerate(k, mode) })
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec.Do(parent, "system.build", func(int) { rep.sys, err = system.FromPatterns(params, mode, k.H, rep.pats) })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rep.allocBytes, rep.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	sys := rep.sys
	fmt.Fprintf(out, "  %d runs, %d points, %d distinct views\n\n", sys.NumRuns(), sys.NumPoints(), sys.Interner.Size())
	e := knowledge.NewEvaluator(sys)
	e.SetParallelism(1)

	type entry struct {
		name string
		pair fip.Pair
	}
	var pairs []entry
	rec.Do(parent, "protocols.pairs", func(int) {
		if mode == failures.Crash {
			pairs = append(pairs,
				entry{"P0", protocols.P0Pair(k.T)},
				entry{"P1", protocols.P1Pair(k.T)},
				entry{"P0opt", protocols.P0OptPair()})
			return
		}
		chain := protocols.Chain0SemanticPair(e)
		pairs = append(pairs, entry{"Chain0", chain}, entry{"F*", core.PrimeStep(e, chain, "F*")})
	})
	rec.Do(parent, "core.twostep", func(int) {
		never := fip.Pair{Name: "FΛ", Z: fip.Empty("FΛ.Z"), O: fip.Empty("FΛ.O")}
		pairs = append(pairs, entry{"TwoStep(FΛ)", core.TwoStep(e, never)})
	})

	verdict := func(err error) string {
		if err != nil {
			return "FAIL"
		}
		return "ok"
	}
	fmt.Fprintf(out, "%-14s %-10s %-10s %-10s %-12s %s\n", "protocol", "decision", "agreement", "validity", "optimal", "worst case")
	for _, p := range pairs {
		var dec, agr, val, worst string
		var optOK bool
		rec.Do(parent, "core.check", func(int) {
			dec = verdict(core.CheckDecision(sys, p.pair))
			agr = verdict(core.CheckWeakAgreement(sys, p.pair))
			val = verdict(core.CheckWeakValidity(sys, p.pair))
		})
		rec.Do(parent, "core.optimal", func(int) { optOK, _ = core.IsOptimal(e, p.pair) })
		rec.Do(parent, "core.check", func(int) {
			max, all := core.MaxNonfaultyDecisionRound(sys, p.pair)
			worst = fmt.Sprintf("%d", max)
			if !all {
				worst = "undecided"
			}
		})
		fmt.Fprintf(out, "%-14s %-10s %-10s %-10s %-12v %s\n", p.name, dec, agr, val, optOK, worst)
	}

	fmt.Fprintln(out, "\ndominance matrix (row dominates column):")
	fmt.Fprintf(out, "%-14s", "")
	for _, q := range pairs {
		fmt.Fprintf(out, "%-14s", q.name)
	}
	fmt.Fprintln(out)
	for _, p := range pairs {
		fmt.Fprintf(out, "%-14s", p.name)
		for _, q := range pairs {
			cell := "-"
			if p.name != q.name {
				rec.Do(parent, "core.dominance", func(int) {
					switch {
					case core.StrictlyDominates(sys, p.pair, q.pair):
						cell = "strict"
					case core.Dominates(sys, p.pair, q.pair):
						cell = "yes"
					default:
						cell = "no"
					}
				})
			}
			fmt.Fprintf(out, "%-14s", cell)
		}
		fmt.Fprintln(out)
	}
	rep.stdout = out.Bytes()
	return rep, nil
}
