package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/eventual-agreement/eba/internal/stats"
)

// tailLadder is the percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// TailPercentile picks the highest percentile of the ladder that still
// has at least ten of n samples beyond it — the highest one a sample
// of that size supports. ok is false when even p75 does not (n < 40).
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		// Nearest rank puts ceil(p*n) samples at or below the value.
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	// The epsilon keeps 0.99*1000 = 990.0000000000001 at rank 990.
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// Timing is how the benchmark reports a latency sample: median, the
// highest supported tail percentile, and the sample count.
type Timing struct {
	N      int     `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	TailP  float64 `json:"tail_p,omitempty"`
	TailMS float64 `json:"tail_ms,omitempty"`
}

// Summarize sorts lat in place and reports it. P50 is the median
// (the mean of the middle two when even: with a dozen samples that
// halves the noise of picking one); P99 is always the nearest-rank
// p99 (the maximum for fewer than a hundred samples); TailP/TailMS
// are set only when the sample supports a tail.
func Summarize(lat []time.Duration) Timing {
	t := Timing{
		N:     len(lat),
		P50MS: millis(medianDuration(lat)),
		P99MS: stats.PercentileMS(lat, 0.99),
	}
	if p, ok := TailPercentile(len(lat)); ok {
		t.TailP, t.TailMS = p, stats.PercentileMS(lat, p)
	}
	return t
}

// String renders the timing with its sample count and, when p99 has
// fewer than ten samples beyond it, the tail the sample does support.
func (t Timing) String() string {
	s := fmt.Sprintf("p50 %.3f ms, p99 %.3f ms, n=%d", t.P50MS, t.P99MS, t.N)
	switch {
	case t.TailP == 0:
		s += " (no tail percentile has 10 samples beyond it)"
	case t.TailP != 0.99:
		s += fmt.Sprintf(" (highest supported tail: p%g %.3f ms)", t.TailP*100, t.TailMS)
	}
	return s
}

// median of a float sample (mean of the middle two when even); 0 for
// an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianDuration of a duration sample.
func medianDuration(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// Ratio is a quotient that never travels without its base.
type Ratio struct {
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Den   float64 `json:"den"`
	// Base says what Num and Den are, with their unit.
	Base string `json:"base"`
}

// NewRatio divides, keeping both operands; a zero base gives 0.
func NewRatio(num, den float64, base string) Ratio {
	r := Ratio{Num: num, Den: den, Base: base}
	if den != 0 {
		r.Value = num / den
	}
	return r
}

func (r Ratio) String() string {
	return fmt.Sprintf("%.4f (= %.4g / %.4g, %s)", r.Value, r.Num, r.Den, r.Base)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
