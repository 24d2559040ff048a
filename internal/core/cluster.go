package core

import "sort"

// Cluster is a similar-latency cluster of segments (§3.3.3): a latency
// interval such that measurements in different clusters differ by at least
// the merge gap.
type Cluster struct {
	Min, Max float64
	// Points is the number of measurements inside the cluster.
	Points int
	// Weight is the fraction of the considered measurements that fall in
	// this cluster (the paper annotates clusters with weight w%).
	Weight float64
}

// Contains reports whether a latency value falls inside the cluster range.
func (c *Cluster) Contains(v float64) bool { return v >= c.Min && v <= c.Max }

// interval is a cluster-building input.
type interval struct {
	min, max float64
	points   int
}

// mergeIntervals single-links intervals whose gap is smaller than gap: two
// intervals stay separate only if all their values differ by at least gap.
func mergeIntervals(in []interval, gap float64) []Cluster {
	if len(in) == 0 {
		return nil
	}
	sorted := append([]interval(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].min < sorted[j].min })
	var out []Cluster
	cur := Cluster{Min: sorted[0].min, Max: sorted[0].max, Points: sorted[0].points}
	total := sorted[0].points
	for _, iv := range sorted[1:] {
		total += iv.points
		if iv.min-cur.Max < gap {
			if iv.max > cur.Max {
				cur.Max = iv.max
			}
			cur.Points += iv.points
		} else {
			out = append(out, cur)
			cur = Cluster{Min: iv.min, Max: iv.max, Points: iv.points}
		}
	}
	out = append(out, cur)
	if total > 0 {
		for i := range out {
			out[i].Weight = float64(out[i].Points) / float64(total)
		}
	}
	// Heaviest first, ties by lower latency.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Points != out[j].Points {
			return out[i].Points > out[j].Points
		}
		return out[i].Min < out[j].Min
	})
	return out
}

// segmentKept reports whether a segment's measurements survive analysis and
// participate in clustering: stable segments, absorbed unstable ones, and
// corrected anomalies.
func segmentKept(s *Segment) bool {
	switch s.Flag {
	case FlagAbsorbed, FlagCorrected:
		return true
	case FlagNone:
		return s.Stable
	default:
		return false
	}
}

// clusterSegments builds the streamer's similar-latency clusters from the
// kept segments, merging at MergeFactor × LatGap.
func clusterSegments(segs []Segment, p Params) []Cluster {
	var ivs []interval
	for i := range segs {
		s := &segs[i]
		if !segmentKept(s) {
			continue
		}
		ivs = append(ivs, interval{min: s.Min, max: s.Max, points: s.Len()})
	}
	return mergeIntervals(ivs, p.MergeFactor*p.LatGap)
}

// clusterIndexOf returns the index of the cluster containing the segment's
// midpoint, or -1.
func clusterIndexOf(clusters []Cluster, s *Segment) int {
	mid := (s.Min + s.Max) / 2
	for i := range clusters {
		if clusters[i].Contains(mid) {
			return i
		}
	}
	// Fall back to nearest cluster edge (segments from other streamers may
	// fall slightly outside all merged ranges).
	best, bestD := -1, 0.0
	for i := range clusters {
		d := 0.0
		switch {
		case mid < clusters[i].Min:
			d = clusters[i].Min - mid
		case mid > clusters[i].Max:
			d = mid - clusters[i].Max
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
