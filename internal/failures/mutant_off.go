//go:build !mutant_enum_order

package failures

// mutant names the planted bug a build carries: none here. A file
// built only under the tag mutant_<name> sets it to <name>, planting a
// known bug that the test named beside it must catch:
//
//   - enum_order makes Enum's odometer advance the highest faulty
//     member first, which reorders every pattern list with two or more
//     faulty members: TestEnumOrderGoldens.
//
// It is a constant, so the default build compiles the branch away.
const mutant = ""
