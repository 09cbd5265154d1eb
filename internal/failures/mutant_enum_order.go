//go:build mutant_enum_order

package failures

// Planted bug: see mutant_off.go.
const mutant = "enum_order"
