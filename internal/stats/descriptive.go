// Package stats provides the statistical machinery used throughout the Tero
// reproduction: descriptive statistics, exact percentiles and five-number
// boxplots, Wasserstein-1 distances and uneven-ness scores (Fig. 8), the
// binomial tail test used for shared-anomaly detection (App. F), and Probit
// regression with average marginal effects (Table 5).
//
// Everything is implemented from scratch on float64 slices; no external
// numerical libraries are used.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty data.
var ErrEmpty = errors.New("stats: empty data")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs (50th percentile), or 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks (the same convention as numpy's
// default). It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted computes a percentile over already-sorted data.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Boxplot holds the five percentiles Tero uses to plot a latency
// distribution: 5th, 25th, 50th, 75th and 95th (§5.2). The paper uses these
// instead of min/max whiskers to conservatively exclude the up-to-3.7% of
// points expected to be image-processing errors.
type Boxplot struct {
	P5, P25, P50, P75, P95 float64
	N                      int // number of samples
}

// NewBoxplot computes the five-percentile boxplot of xs.
func NewBoxplot(xs []float64) Boxplot {
	n := len(xs)
	if n == 0 {
		return Boxplot{}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Boxplot{
		P5:  percentileSorted(sorted, 5),
		P25: percentileSorted(sorted, 25),
		P50: percentileSorted(sorted, 50),
		P75: percentileSorted(sorted, 75),
		P95: percentileSorted(sorted, 95),
		N:   n,
	}
}

// MeanStd returns mean and (unbiased) standard deviation in one pass over xs.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	s := 0.0
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(n-1))
}
