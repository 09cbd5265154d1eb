//go:build mutant_chain_occupied

package knowledge

// Planted bug: see mutant_off.go.
const (
	mutantMemberNF      = false
	mutantChainNoGap    = false
	mutantChainOccupied = true
	mutantCDiaLayer     = false
)
