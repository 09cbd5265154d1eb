//go:build mutant_lane2nocheck

package store

// Planted bug: see mutant_off.go.
const mutant = "lane2nocheck"
