//go:build mutant_childtime

package views

// Planted bug: see mutant_off.go.
const mutant = "childtime"
