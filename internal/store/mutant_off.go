//go:build !mutant_lane2nocheck && !mutant_witnessrun && !mutant_lazydigest

package store

// Mutation switches. Each is false here; a file built only under the
// tag mutant_<name> sets one of them, planting a known bug in the
// store that the test named beside it must catch:
//
//   - mutantLane2NoCheck makes the run table's second lane skip the
//     per-run check (system.Restorer.CheckRun): TestLaneErrorsMatch;
//   - mutantWitnessRun writes the configuration of the run after the
//     first falsifying point's into a result file:
//     TestAnswerOriginsAgree;
//   - mutantLazyDigest lets the first decode of an entry restored
//     undecoded accept a valid snapshot of the key whose digest is not
//     the one the entry was admitted under: TestLazyDecodeRejectsOtherSnapshot.
//
// They are constants, so the default build compiles every branch away.
const (
	mutantLane2NoCheck = false
	mutantWitnessRun   = false
	mutantLazyDigest   = false
)
