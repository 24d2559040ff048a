package stats

import (
	"math"
	"sort"
)

// Wasserstein1 returns the 1-Wasserstein (earth mover's) distance between
// the empirical distributions of xs and ys on the real line. For 1-D
// distributions this is the L1 distance between quantile functions, which we
// compute exactly from the sorted samples.
func Wasserstein1(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)

	// Merge the two empirical CDFs and integrate |Fa - Fb| over the merged
	// support. This is the standard exact algorithm for W1 in one dimension.
	na, nb := float64(len(a)), float64(len(b))
	var (
		i, j int
		dist float64
	)
	// Collect all breakpoints.
	prev := math.Min(a[0], b[0])
	for i < len(a) || j < len(b) {
		var cur float64
		switch {
		case i >= len(a):
			cur = b[j]
		case j >= len(b):
			cur = a[i]
		case a[i] <= b[j]:
			cur = a[i]
		default:
			cur = b[j]
		}
		fa := float64(i) / na
		fb := float64(j) / nb
		dist += math.Abs(fa-fb) * (cur - prev)
		prev = cur
		for i < len(a) && a[i] == cur {
			i++
		}
		for j < len(b) && b[j] == cur {
			j++
		}
	}
	return dist
}

// UnevennessScore computes the score used in Fig. 8: how unevenly a set of
// event timestamps is distributed across a time interval of length
// `window`. It is the Wasserstein-1 distance between the observed point
// positions and an ideally uniform placement, normalized by the distance
// between the uniform placement and the most uneven distribution possible
// (all points at one end of the interval). A score of 0 means perfectly
// even; 1 means maximally bursty.
func UnevennessScore(times []float64, window float64) float64 {
	n := len(times)
	if n == 0 || window <= 0 {
		return 0
	}
	// Normalize into [0, 1].
	pts := make([]float64, n)
	for i, t := range times {
		p := t / window
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		pts[i] = p
	}
	// Ideal uniform placement of n points in [0,1]: midpoints of n equal bins.
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = (float64(i) + 0.5) / float64(n)
	}
	// Worst case: all points collapsed at a single instant. The worst W1
	// against the uniform placement over all collapse positions is achieved
	// at the interval edge (position 0 or 1) by symmetry.
	worst := make([]float64, n)
	for i := range worst {
		worst[i] = 0
	}
	num := Wasserstein1(pts, uniform)
	den := Wasserstein1(worst, uniform)
	if den == 0 {
		return 0
	}
	s := num / den
	if s > 1 {
		s = 1
	}
	return s
}

// CDFAt returns the empirical CDF of xs evaluated at each point of at.
func CDFAt(xs, at []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(at))
	for i, v := range at {
		out[i] = float64(sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))) / float64(len(sorted))
	}
	return out
}
