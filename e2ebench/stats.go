package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics (the "type 7" rule of R and
// NumPy). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// minTail is the number of samples a tail percentile must leave beyond
// it in every config.
const minTail = 10

// perConfig holds one command's latency samples, one slice per config.
type perConfig [][]float64

// counts returns the smallest and largest per-config sample counts.
func (pc perConfig) counts() (lo, hi int) {
	lo = math.MaxInt
	for _, xs := range pc {
		lo = min(lo, len(xs))
		hi = max(hi, len(xs))
	}
	return lo, hi
}

// p50 is the per-config median combined by geometric mean; ok is false
// when some config has no sample.
func (pc perConfig) p50() (v float64, ok bool) {
	if lo, _ := pc.counts(); lo == 0 {
		return 0, false
	}
	meds := make([]float64, len(pc))
	for i, xs := range pc {
		meds[i] = quantile(xs, 0.5)
	}
	return geomean(meds), true
}

// tail is the q-quantile taken per config and combined by geometric
// mean. beyond is the fewest samples any config has above it; it is 0
// (and v meaningless) when some config has no sample.
func (pc perConfig) tail(q float64) (v float64, beyond int) {
	if lo, _ := pc.counts(); lo == 0 {
		return 0, 0
	}
	beyond = math.MaxInt
	vals := make([]float64, len(pc))
	for i, xs := range pc {
		vals[i] = quantile(xs, q)
		beyond = min(beyond, int(math.Floor(float64(len(xs))*(1-q))))
	}
	return geomean(vals), beyond
}
