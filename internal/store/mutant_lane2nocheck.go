//go:build mutant_lane2nocheck

package store

// Planted bug: see mutant_off.go.
const (
	mutantLane2NoCheck = true
	mutantWitnessRun   = false
)
