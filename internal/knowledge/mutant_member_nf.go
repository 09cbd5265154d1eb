//go:build mutant_member_nf

package knowledge

// Planted bug: see mutant_off.go.
const mutant = "member_nf"
