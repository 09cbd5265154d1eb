//go:build !mutant_childtime && !mutant_childowner

package views

// mutant names the planted bug a build carries: none here. A file
// built only under the tag mutant_<name> sets it to <name>, planting a
// known bug in UnmarshalInterner's child checks that TestCodecErrors
// must catch:
//
//   - childtime skips the check that a child is one round older than
//     its parent;
//   - childowner skips the check that the child in slot j is processor
//     j's view.
//
// It is a constant, so the default build compiles every branch away.
const mutant = ""
