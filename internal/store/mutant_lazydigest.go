//go:build mutant_lazydigest

package store

// Planted bug: see mutant_off.go.
const mutant = "lazydigest"
