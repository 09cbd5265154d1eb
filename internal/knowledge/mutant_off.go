//go:build !mutant_member_nf && !mutant_chain_nogap && !mutant_chain_occupied && !mutant_cdia_layer

package knowledge

// Mutation switches. Each is false here; a file built only under the
// tag mutant_<name> sets one of them, planting a known bug in the
// component builders (member.inRun, runComponents) or the C◇ worklist
// (evalCDiamond) that the differential tests must catch:
//
//   - mutantMemberNF admits a processor whose membership asks nf in
//     runs where it is faulty;
//   - mutantChainNoGap joins an admitted view to its Prev even where
//     the owner was out of S there, instead of to the latest admitted
//     view before it;
//   - mutantChainOccupied marks a run occupied at every time when its
//     final view is admitted, ignoring the rest of the chain;
//   - mutantCDiaLayer drops the last processor's refutations in every
//     layer after the first, so C◇ settles on too large a fixed point.
//
// They are constants, so the default build compiles every branch away.
const (
	mutantMemberNF      = false
	mutantChainNoGap    = false
	mutantChainOccupied = false
	mutantCDiaLayer     = false
)
