//go:build mutant_childowner

package views

// Planted bug: see mutant_off.go.
const mutant = "childowner"
