//go:build !mutant_wire_html

package service

// mutant names the planted bug a build carries: none here. A file
// built only under the tag mutant_<name> sets it to <name>, planting a
// known bug in the query wire that the test named beside it must catch:
//
//   - wire_html makes the encoder write '<', '>' and '&' raw, where
//     encoding/json escapes them: FuzzWireResponse.
//
// It is a constant, so the default build compiles every branch away.
const mutant = ""
