package protocols

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

// The halting variant preserves agreement, validity, and decision on
// every crash run, with strictly fewer messages overall.
func TestP0OptHaltingCorrectAndCheaper(t *testing.T) {
	const n, tt, h = 3, 1, 4
	params := types.Params{N: n, T: tt}
	pats, err := failures.EnumCrash(n, tt, h)
	if err != nil {
		t.Fatal(err)
	}
	var sentFull, sentHalt int
	for _, pat := range pats {
		for mask := uint64(0); mask < 1<<n; mask++ {
			cfg := types.ConfigFromBits(n, mask)
			full, err := sim.Run(P0Opt(), params, cfg, pat)
			if err != nil {
				t.Fatal(err)
			}
			halt, err := sim.Run(P0OptHalting(), params, cfg, pat)
			if err != nil {
				t.Fatal(err)
			}
			sentFull += full.Sent
			sentHalt += halt.Sent
			var saw [2]bool
			for _, proc := range pat.Nonfaulty().Members() {
				v, _, ok := halt.DecisionOf(proc)
				if !ok {
					t.Fatalf("halting left nonfaulty %d undecided (cfg %s, %s)", proc, cfg, pat)
				}
				saw[v] = true
				if want, same := cfg.AllEqual(); same && v != want {
					t.Fatalf("halting violates validity (cfg %s, %s)", cfg, pat)
				}
			}
			if saw[0] && saw[1] {
				t.Fatalf("halting violates agreement (cfg %s, %s)", cfg, pat)
			}
			if halt.Sent > full.Sent {
				t.Fatalf("halting sent more messages (cfg %s, %s)", cfg, pat)
			}
		}
	}
	if sentHalt >= sentFull {
		t.Fatalf("no overall savings: %d vs %d", sentHalt, sentFull)
	}
	t.Logf("messages: full=%d halting=%d (%.0f%% saved)",
		sentFull, sentHalt, 100*(1-float64(sentHalt)/float64(sentFull)))
}

// Message accounting: a failure-free FIP run sends n*(n-1) messages
// per round and delivers all of them; a silent processor's messages
// are counted as sent but not delivered... except that the protocol
// itself produced them — omissions happen in the network.
func TestMessageCounters(t *testing.T) {
	const n, h = 3, 2
	params := types.Params{N: n, T: 1}
	ff, err := sim.Run(P0Opt(), params, types.ConfigFromBits(n, 0b111), failures.FailureFree(failures.Crash, n, h))
	if err != nil {
		t.Fatal(err)
	}
	if ff.Sent != n*(n-1)*h || ff.Delivered != ff.Sent {
		t.Fatalf("failure-free counters: sent=%d delivered=%d", ff.Sent, ff.Delivered)
	}
	lossy, err := sim.Run(P0Opt(), params, types.ConfigFromBits(n, 0b111), failures.Silent(failures.Omission, n, h, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Sent != n*(n-1)*h {
		t.Fatalf("lossy sent = %d", lossy.Sent)
	}
	if lossy.Delivered != lossy.Sent-(n-1)*h {
		t.Fatalf("lossy delivered = %d", lossy.Delivered)
	}
}
