//go:build !mutant_lane2nocheck

package store

// Mutation switches. Each is false here; a file built only under the
// tag mutant_<name> sets one of them, planting a known bug in the
// snapshot decoder that the lane tests must catch:
//
//   - mutantLane2NoCheck makes the run table's second lane skip the
//     per-run check (system.Restorer.CheckRun).
//
// They are constants, so the default build compiles every branch away.
const mutantLane2NoCheck = false
