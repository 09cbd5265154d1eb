//go:build mutant_wire_html

package service

// Planted bug: see mutant_off.go.
const mutant = "wire_html"
