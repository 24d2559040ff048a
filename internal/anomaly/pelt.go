package anomaly

import "math"

// PELT implements the Pruned Exact Linear Time changepoint-detection
// algorithm of Killick et al. [26], which the paper tried for anomaly
// detection before settling on the QoE-based technique (§3.3.2). The cost
// of a segment is its residual sum of squares around the segment mean
// (change-in-mean model); penalty is the per-changepoint penalty — use
// DefaultPenalty for a BIC-style penalty scaled to the series noise.
//
// It returns the changepoint indexes: positions i such that a new segment
// starts at i (excluding 0).
func PELT(values []float64, penalty float64) []int {
	n := len(values)
	if n == 0 {
		return nil
	}
	// Prefix sums for O(1) segment cost.
	pre := make([]float64, n+1)
	pre2 := make([]float64, n+1)
	for i, v := range values {
		pre[i+1] = pre[i] + v
		pre2[i+1] = pre2[i] + v*v
	}
	cost := func(s, e int) float64 { // segment [s, e)
		m := float64(e - s)
		sum := pre[e] - pre[s]
		sum2 := pre2[e] - pre2[s]
		rss := sum2 - sum*sum/m
		if rss < 0 {
			rss = 0
		}
		return rss
	}

	// F[t] = minimal cost of segmenting values[0:t].
	F := make([]float64, n+1)
	last := make([]int, n+1) // last changepoint before t
	F[0] = -penalty
	candidates := []int{0}
	for t := 1; t <= n; t++ {
		bestCost := math.Inf(1)
		bestTau := 0
		for _, tau := range candidates {
			cval := F[tau] + cost(tau, t) + penalty
			if cval < bestCost {
				bestCost = cval
				bestTau = tau
			}
		}
		F[t] = bestCost
		last[t] = bestTau
		// Prune candidates that can never be optimal again.
		kept := candidates[:0]
		for _, tau := range candidates {
			if F[tau]+cost(tau, t) <= F[t] {
				kept = append(kept, tau)
			}
		}
		candidates = append(kept, t)
	}

	// Backtrack changepoints.
	var cps []int
	for t := n; t > 0; t = last[t] {
		if last[t] == 0 {
			break
		}
		cps = append(cps, last[t])
	}
	// Reverse into ascending order.
	for i, j := 0, len(cps)-1; i < j; i, j = i+1, j-1 {
		cps[i], cps[j] = cps[j], cps[i]
	}
	return cps
}

// DefaultPenalty returns a BIC-style penalty 2·σ²·log(n) for the series,
// estimating the noise variance σ² robustly from successive differences
// (Var(diff)/2), which is insensitive to level shifts.
func DefaultPenalty(values []float64) float64 {
	n := len(values)
	if n < 3 {
		return 1
	}
	var sum, sum2 float64
	for i := 1; i < n; i++ {
		d := values[i] - values[i-1]
		sum += d
		sum2 += d * d
	}
	m := float64(n - 1)
	varDiff := sum2/m - (sum/m)*(sum/m)
	sigma2 := varDiff / 2
	if sigma2 < 1e-9 {
		sigma2 = 1e-9
	}
	return 2 * sigma2 * math.Log(float64(n))
}
