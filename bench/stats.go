package main

import (
	"math"
	"sort"

	"tero/internal/stats"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the steadiness figure BENCHMARK.json's bounds are
// judged against. Quartiles follow Python's statistics.quantiles(n=4)
// ("exclusive" method), the definition the driver uses.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := stats.Median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
