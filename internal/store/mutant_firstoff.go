//go:build mutant_firstoff

package store

// Planted bug: see mutant_off.go.
const mutant = "firstoff"
