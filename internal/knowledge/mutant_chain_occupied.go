//go:build mutant_chain_occupied

package knowledge

// Planted bug: see mutant_off.go.
const mutant = "chain_occupied"
