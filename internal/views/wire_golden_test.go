package views_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// TestMarshalGoldenDigest pins the wire encoding of a single view, one
// golden per failure mode: the SHA-256 over Marshal of every view of
// an enumerated system, in ID order. Wire views and snapshot
// interners share one node layout, so a change here is a change to
// what peers exchange; TestCodecGoldenDigest in internal/store pins
// the snapshot side.
func TestMarshalGoldenDigest(t *testing.T) {
	cases := []struct {
		mode   failures.Mode
		golden string
	}{
		{failures.Crash,
			"109fa41333f2125df684958e6c71ed2b1a78cc9d7e2ff98069def29e56ae3140"},
		{failures.Omission,
			"49c80527510f76f8dded66c7e94032658b116cb3ae22d7fe7be6e86b855c02f1"},
		{failures.ReceivingOmission,
			"70d3b8200465e58774d096e5b673cb6a7594d64047f359a3428a36f9dcb0bb48"},
		{failures.GeneralOmission,
			"5cbd68b3e3e74aceb357d1fabb179b4b0859b4950613988dfa694800e56d94f1"},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys, err := system.Enumerate(types.Params{N: 3, T: 1}, tc.mode, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			in := sys.Interner
			h := sha256.New()
			for id := views.ID(0); int(id) < in.Size(); id++ {
				h.Write(views.Marshal(in, id))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.golden {
				t.Fatalf("wire digest over %d views = %s, golden = %s", in.Size(), got, tc.golden)
			}
		})
	}
}
