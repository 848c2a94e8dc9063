// Package stats provides the summary statistics used by the experiment
// drivers and the monitoring tools: mean, median, standard deviation,
// percentiles and log2 histogram buckets over float64 series.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0-100) using linear
// interpolation between closest ranks; 0 for an empty slice. The input is
// not reordered.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already ascending slice, so a
// caller that needs several percentiles sorts once. It returns 0 for an
// empty slice or a NaN percentile: int(NaN) is platform-defined and
// would index out of range.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || math.IsNaN(p) {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Log2Bucket returns floor(log2(x)) for x >= 1 and 0 for smaller x
// (NaN included): the index i of the power-of-two bucket [2^i, 2^(i+1))
// holding x. It reads the binary exponent, so it is exact for every
// float64; math.Floor(math.Log2(x)) rounds up to the next bucket just
// below powers of two from 2^49. +Inf maps to 1024, one past the
// largest finite bucket.
func Log2Bucket(x float64) int {
	if !(x >= 1) {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1024
	}
	_, exp := math.Frexp(x) // x = frac·2^exp, frac in [0.5, 1)
	return exp - 1
}

// Stddev returns the population standard deviation, or 0 for fewer than
// two samples.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the minimum, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the descriptive statistics of a series.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Stddev float64
	Min    float64
	Max    float64
	P5     float64
	P95    float64
}

// Summarize computes a Summary.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Stddev: Stddev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		P5:     Percentile(xs, 5),
		P95:    Percentile(xs, 95),
	}
}

// PctChange returns the percentage change from a to b: (b-a)/a * 100.
func PctChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
