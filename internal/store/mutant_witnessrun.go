//go:build mutant_witnessrun

package store

// Planted bug: see mutant_off.go.
const (
	mutantLane2NoCheck = false
	mutantWitnessRun   = true
	mutantLazyDigest   = false
)
