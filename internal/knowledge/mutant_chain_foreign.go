//go:build mutant_chain_foreign

package knowledge

// Planted bug: see mutant_off.go.
const (
	mutantChainForeign  = true
	mutantChainNoGap    = false
	mutantChainOccupied = false
)
