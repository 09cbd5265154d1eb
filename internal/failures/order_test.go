package failures

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// keysDigest is the SHA-256 of the patterns' keys, in order, one per
// line.
func keysDigest(pats []*Pattern) string {
	h := sha256.New()
	for _, p := range pats {
		fmt.Fprintln(h, p.Key())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// enumLimited calls the mode's enumerator; the crash enumerator takes
// no limit.
func enumLimited(mode Mode, n, t, h, limit int) ([]*Pattern, error) {
	switch mode {
	case Crash:
		return EnumCrash(n, t, h)
	case Omission:
		return EnumOmission(n, t, h, limit)
	case ReceivingOmission:
		return EnumReceiving(n, t, h, limit)
	case GeneralOmission:
		return EnumGeneral(n, t, h, limit)
	}
	return nil, fmt.Errorf("no enumerator for %v", mode)
}

// TestEnumOrderGoldens pins what every enumerator returns and in what
// order: the pattern count and the SHA-256 of the ordered keys, over
// faulty sets with up to three members, so the odometer's order across
// members is held too (the snapshot digests hold it only at t = 1 and
// at general n = 2). An over-limit row pins the error.
func TestEnumOrderGoldens(t *testing.T) {
	for _, tc := range []struct {
		mode    Mode
		n, t, h int
		limit   int
		count   int
		want    string // digest, or the error
	}{
		{Crash, 3, 1, 2, 0, 22, "b92218d84ccc1f99f6d130b666ec017b2d04127d6500a43f8fe2c29cac749ebd"},
		{Crash, 3, 2, 3, 0, 331, "cee262f9465110406f275c5a69820d0bea4b2231de42f373eff4a3338dd09fe5"},
		{Crash, 4, 1, 3, 0, 89, "92a0a354a6e06d68074bcb13672401baf691206bd1ec26d6886190a055bc4d60"},
		{Crash, 4, 2, 2, 0, 1411, "d4ce8a026b6bd6f28b6853e063b07709e96991c826d09abc0455dd135e869804"},
		{Crash, 4, 3, 2, 0, 14911, "649669a9bbc736f178cc680b2fdb64c47928ade44ffbc7bb31634a2ba9da0274"},
		{Crash, 5, 2, 2, 0, 9766, "2d475e3519a5ca8d34bef979d98eef9b82ff60d57fb82aea7954f92c228b9a0c"},
		{Crash, 5, 3, 1, 0, 43601, "cd34fec28c13df96852dfad86f2f6de41ffece5c52e7512ddc8427e9be51e0bb"},
		{Omission, 3, 1, 2, 0, 49, "0d773628bba5b89e522274ceec5dca2a29456ea7c219dd3f3cd46375a91780dd"},
		{Omission, 3, 2, 2, 0, 817, "767be2736cd66563b41f0b0979b0da14f2d2412cc7a128a00b180c10b4de9965"},
		{Omission, 3, 2, 2, 817, 817, "767be2736cd66563b41f0b0979b0da14f2d2412cc7a128a00b180c10b4de9965"},
		{Omission, 3, 2, 2, 816, 0, "failures: enumeration exceeds limit 816"},
		{Omission, 4, 2, 1, 0, 417, "b80758e2ed7118831378940509c6b9a6023d0e392479d9b8a0bf09d37fc67c27"},
		{Omission, 4, 3, 1, 0, 2465, "e56abdc9f99d0fe9bd4579a921b2206684d3c84aa057e90241494a72c196ff88"},
		{Omission, 4, 2, 2, 0, 24833, "6c9da5f90f9c47bb4228b20950e167f45165384877dc91fdd10df9f4a1f618fa"},
		{Omission, 5, 1, 2, 0, 1281, "3f1c57431f2296b6cc645279fe5d1d42085fac136cd12f70ae11936b4b4a2de6"},
		{Omission, 5, 3, 1, 0, 43601, "d96542decde414913d09c7ad18f9a288773f995b6c14031e4055e2a1dee5f094"},
		{ReceivingOmission, 3, 1, 2, 0, 49, "a9ec14ffa5b6233854a73e920b9677dce52bd36d39b0aaaa62d98c2029df1823"},
		{ReceivingOmission, 3, 2, 2, 0, 817, "314bc02a266fae5da5f90a3fa03e165066bdec89adc4b3e88d2ebf7b3b8d2632"},
		{ReceivingOmission, 4, 2, 1, 100, 0, "failures: enumeration exceeds limit 100"},
		{ReceivingOmission, 4, 3, 1, 0, 2465, "d2105ae4e39aa39f54795f25fd6a49f2919373bf652c10750641be7956695754"},
		{ReceivingOmission, 5, 2, 1, 0, 2641, "b32850471ff5e9d6ec03366d10b7d8216f80ef2ec8a418fe0424ce61aa0ba0b4"},
		{GeneralOmission, 2, 1, 2, 0, 33, "db9e9eb93ed7a3239808f654f9b20ba686e96930c4bed0454c910a493cea632a"},
		{GeneralOmission, 3, 1, 2, 0, 769, "ad1a9d3e1380248c855504a5745847af5f61adf5ac3f19bb2bda0590a11928a8"},
		{GeneralOmission, 3, 2, 1, 0, 241, "b4018d294fc85b2ea2e25ba1a35f770905982be2bc6deb01b57466d6f2a01a89"},
		{GeneralOmission, 3, 2, 2, 0, 13057, "12db18d36683c8b39b3d81287692579d281ed665ed63f2d442da5d98e21523ba"},
		{GeneralOmission, 4, 2, 1, 0, 6401, "699ac2ab47ac8d9e99b4c91b78b37efb87dc9e55954025e4f11d54b3d51dd44f"},
		{GeneralOmission, 4, 3, 1, 0, 22785, "9aead31ee275bcdca8aec1a3c8e3fd336769ef82233956845481f43ad56b852a"},
		{GeneralOmission, 5, 1, 1, 0, 1281, "9610a9f6be6b72e3750b9b26585dcf31ad88948e9c1cb3f94c6ce2956264b259"},
		{GeneralOmission, 4, 2, 2, 10000, 0, "failures: enumeration exceeds limit 10000"},
	} {
		name := fmt.Sprintf("%s/n%d/t%d/h%d/limit%d", tc.mode, tc.n, tc.t, tc.h, tc.limit)
		pats, err := enumLimited(tc.mode, tc.n, tc.t, tc.h, tc.limit)
		var got string
		if err != nil {
			got = err.Error()
		} else {
			got = keysDigest(pats)
		}
		if len(pats) != tc.count || got != tc.want {
			t.Errorf("%s: %d patterns, %s; want %d, %s", name, len(pats), got, tc.count, tc.want)
		}
	}
}

// TestSamplerGoldens pins each sampler's draws at a fixed seed.
func TestSamplerGoldens(t *testing.T) {
	for _, tc := range []struct {
		mode   Mode
		sample func(n, t, h, count int, rng *rand.Rand) ([]*Pattern, error)
		want   string
	}{
		{Crash, SampleCrash, "4ca3d1e2357695abd31815d2ea47640453a07a6f5dcd1e68f0678b172c8a1d45"},
		{Omission, SampleOmission, "8e068128dfb26385b0b230fbc5b9dfae7e23f8d7189f70290f5925256eba11ec"},
		{ReceivingOmission, SampleReceiving, "74170072ff5e76f387f89b195bd82a0d7bf2e45f7b778261d18ae78c5aa28b0f"},
		{GeneralOmission, SampleGeneral, "30fbac410152aada66337d474d4c50b00bb0fc09627d8a6114638afe610b9c98"},
	} {
		pats, err := tc.sample(4, 2, 3, 60, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if got := keysDigest(pats); len(pats) != 60 || got != tc.want {
			t.Errorf("%s: %d patterns, %s; want 60, %s", tc.mode, len(pats), got, tc.want)
		}
	}
}
