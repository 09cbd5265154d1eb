//go:build !mutant_lane2nocheck && !mutant_witnessrun && !mutant_lazydigest && !mutant_firstoff

package store

// mutant names the planted bug a build carries: none here. A file
// built only under the tag mutant_<name> sets it to <name>, planting a
// known bug in the store that the test named beside it must catch:
//
//   - lane2nocheck makes the run table's second lane skip the per-run
//     check (system.Restorer.CheckRun): TestLaneErrorsMatch;
//   - witnessrun writes the configuration of the run after the first
//     falsifying point's into a result file: TestAnswerOriginsAgree;
//   - lazydigest lets the first decode of an entry restored undecoded
//     accept a valid snapshot of the key whose digest is not the one
//     the entry was admitted under: TestLazyDecodeRejectsOtherSnapshot;
//   - firstoff writes the first falsifying point plus one into a
//     result file: TestAnswerOriginsAgree.
//
// It is a constant, so the default build compiles every branch away.
const mutant = ""
