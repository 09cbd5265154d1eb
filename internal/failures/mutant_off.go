//go:build !mutant_enum_order

package failures

// Mutation switch. It is false here; a file built only under the tag
// mutant_<name> sets it, planting a known bug that the test named
// beside it must catch:
//
//   - mutantEnumOrder makes Enum's odometer advance the highest faulty
//     member first, which reorders every pattern list with two or more
//     faulty members: TestEnumOrderGoldens.
//
// It is a constant, so the default build compiles the branch away.
const mutantEnumOrder = false
