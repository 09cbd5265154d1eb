//go:build mutant_chain_occupied

package knowledge

// Planted bug: see mutant_off.go.
const (
	mutantChainForeign  = false
	mutantChainNoGap    = false
	mutantChainOccupied = true
)
