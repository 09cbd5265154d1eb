//go:build mutant_witnessrun

package store

// Planted bug: see mutant_off.go.
const mutant = "witnessrun"
