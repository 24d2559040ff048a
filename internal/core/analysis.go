package core

import (
	"sort"

	"tero/internal/geo"
)

// Analysis is the result of running the data-analysis pipeline on all the
// streams of one {streamer, game} tuple.
type Analysis struct {
	Streamer string
	Game     string
	// Streams are deep copies of the input, in chronological order, with
	// corrected values substituted in.
	Streams []Stream
	// Segments is the stitched segment list across all streams.
	Segments []Segment
	// Spikes and Glitches are the detected anomaly events.
	Spikes   []Spike
	Glitches []Glitch
	// Discarded is true when the streamer had no stable segment at all
	// (§3.3.1: likely a problematic play-station or connection).
	Discarded bool
	// HighQuality is true when less than MaxSpikes of the streamer's
	// not-glitched measurements belong to spikes (§3.3.3).
	HighQuality bool
	// SpikeFraction is the spike-point share used for the above.
	SpikeFraction float64
	// Clusters are the streamer's similar-latency clusters, heaviest first.
	Clusters []Cluster
	// Static is true when the dominant cluster holds at least MinWeight of
	// the measurements; otherwise the streamer is mobile.
	Static bool
	// TotalPoints counts all input measurements; KeptPoints those surviving.
	TotalPoints int
	KeptPoints  int
}

// Analyze runs the full §3.3 pipeline for one {streamer, game}: stream
// segmentation, glitch and spike detection, spike merging, cleanup,
// correction via alternative values, quality filtering, clustering, and
// static/mobile classification.
func Analyze(streams []Stream, p Params) *Analysis {
	a := &Analysis{}
	if len(streams) == 0 {
		a.Discarded = true
		return a
	}
	a.Streamer = streams[0].Streamer
	a.Game = streams[0].Game

	// Deep-copy and sort chronologically; correction mutates points.
	a.Streams = make([]Stream, len(streams))
	for i, s := range streams {
		cp := s
		cp.Points = append([]Point(nil), s.Points...)
		a.Streams[i] = cp
		a.TotalPoints += len(s.Points)
	}
	sort.SliceStable(a.Streams, func(i, j int) bool {
		pi, pj := a.Streams[i].Points, a.Streams[j].Points
		if len(pi) == 0 || len(pj) == 0 {
			return len(pi) > len(pj)
		}
		return pi[0].T.Before(pj[0].T)
	})

	a.Segments = stitch(a.Streams, p)
	if !hasStable(a.Segments) {
		// A streamer with only unstable segments is dropped entirely.
		a.Discarded = true
		for i := range a.Segments {
			a.Segments[i].Flag = FlagDiscarded
		}
		return a
	}

	detectGlitches(a.Segments, p)
	detectSpikes(a.Segments, p)
	a.Spikes, a.Glitches = collectEvents(a.Streams, a.Segments, p)
	cleanup(a.Segments, p)
	correct(a.Streams, a.Segments, p)

	// Quality: spike points over not-glitched points (App. I, Fig. 16a).
	spikePts, glitchPts := 0, 0
	for _, s := range a.Spikes {
		spikePts += s.Points
	}
	for _, g := range a.Glitches {
		glitchPts += g.Points
	}
	den := a.TotalPoints - glitchPts
	if den > 0 {
		a.SpikeFraction = float64(spikePts) / float64(den)
	}
	a.HighQuality = a.SpikeFraction < p.MaxSpikes

	a.Clusters = clusterSegments(a.Segments, p)
	if len(a.Clusters) > 0 && a.Clusters[0].Weight >= p.MinWeight {
		a.Static = true
	}
	for i := range a.Segments {
		if segmentKept(&a.Segments[i]) {
			a.KeptPoints += a.Segments[i].Len()
		}
	}
	return a
}

// DominantCluster returns the heaviest cluster, or nil.
func (a *Analysis) DominantCluster() *Cluster {
	if len(a.Clusters) == 0 {
		return nil
	}
	return &a.Clusters[0]
}

// KeptLatencies returns the latency values of all kept segments.
func (a *Analysis) KeptLatencies() []float64 {
	var out []float64
	for i := range a.Segments {
		s := &a.Segments[i]
		if !segmentKept(s) {
			continue
		}
		for _, pt := range a.Streams[s.StreamIdx].Points[s.Start:s.End] {
			out = append(out, pt.Ms)
		}
	}
	return out
}

// LatenciesInCluster returns the kept latency values falling inside the
// given cluster interval.
func (a *Analysis) LatenciesInCluster(c *Cluster) []float64 {
	var out []float64
	for _, v := range a.KeptLatencies() {
		if c.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Location returns the streamer's location as recorded on the first stream
// (§3.3.1 assumes location cannot change mid-stream; a streamer may have
// several {streamer, location} identities, which the pipeline layer treats
// as distinct end-points).
func (a *Analysis) Location() geo.Location {
	if len(a.Streams) == 0 {
		return geo.Location{}
	}
	return a.Streams[0].Location
}
