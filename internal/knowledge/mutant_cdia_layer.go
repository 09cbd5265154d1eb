//go:build mutant_cdia_layer

package knowledge

// Planted bug: see mutant_off.go.
const mutant = "cdia_layer"
