//go:build !mutant_member_nf && !mutant_chain_nogap && !mutant_chain_occupied && !mutant_cdia_layer

package knowledge

// mutant names the planted bug a build carries: none here. A file
// built only under the tag mutant_<name> sets it to <name>, planting a
// known bug in the component builders (member.inRun, runComponents) or
// the C◇ worklist (evalCDiamond) that the differential tests must
// catch:
//
//   - member_nf admits a processor whose membership asks nf in runs
//     where it is faulty;
//   - chain_nogap joins an admitted view to its Prev even where the
//     owner was out of S there, instead of to the latest admitted view
//     before it;
//   - chain_occupied marks a run occupied at every time when its final
//     view is admitted, ignoring the rest of the chain;
//   - cdia_layer drops the last processor's refutations in every layer
//     after the first, so C◇ settles on too large a fixed point.
//
// It is a constant, so the default build compiles every branch away.
const mutant = ""
