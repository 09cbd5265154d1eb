//go:build mutant_member_nf

package knowledge

// Planted bug: see mutant_off.go.
const (
	mutantMemberNF      = true
	mutantChainNoGap    = false
	mutantChainOccupied = false
	mutantCDiaLayer     = false
)
