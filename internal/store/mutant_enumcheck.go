//go:build mutant_enumcheck

package store

// Planted bug: see mutant_off.go.
const mutant = "enumcheck"
