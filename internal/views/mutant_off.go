//go:build !mutant_childtime && !mutant_childowner

package views

// Mutation switches. Each is false here; a file built only under the
// tag mutant_<name> sets one of them, planting a known bug in
// UnmarshalInterner's child checks that TestCodecErrors must catch:
//
//   - mutantChildTime skips the check that a child is one round older
//     than its parent;
//   - mutantChildOwner skips the check that the child in slot j is
//     processor j's view.
//
// They are constants, so the default build compiles every branch away.
const (
	mutantChildTime  = false
	mutantChildOwner = false
)
