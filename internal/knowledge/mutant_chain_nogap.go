//go:build mutant_chain_nogap

package knowledge

// Planted bug: see mutant_off.go.
const mutant = "chain_nogap"
