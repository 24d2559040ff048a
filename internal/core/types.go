// Package core implements the paper's primary contribution: Tero's
// data-analysis module (§3.3). It organizes latency measurements into
// streams and same-QoE segments, detects and corrects or discards anomalies
// (glitches and spikes), computes per-streamer latency clusters, classifies
// streamers as static or mobile, detects end-point (server/location)
// changes, computes latency distributions per {location, game}, and runs
// the shared-anomaly statistical test (App. F).
package core

import (
	"time"

	"tero/internal/geo"
)

// Params are Tero's configurable parameters (Table 1).
type Params struct {
	// LatGap is the perceivable latency difference threshold in ms
	// (default 15 ms, the upper bound of human-perceivable difference).
	LatGap float64
	// StableLen is the minimum time one must play on the same server
	// before switching; segments spanning fewer points than StableLen
	// worth of samples are unstable (default 30 min, App. I).
	StableLen time.Duration
	// SampleEvery is the thumbnail cadence (5 min on Twitch).
	SampleEvery time.Duration
	// MaxSpikes is the maximum proportion of spike points allowed for a
	// streamer to be considered high-quality (default 0.5).
	MaxSpikes float64
	// MinWeight is the minimum weight of a streamer's dominant cluster for
	// the streamer to be classified static (default 0.8).
	MinWeight float64
	// MergeFactor scales LatGap for cluster merging (Fig. 14 sweeps it;
	// default 1).
	MergeFactor float64
}

// DefaultParams returns the parameter values used throughout the paper.
func DefaultParams() Params {
	return Params{
		LatGap:      15,
		StableLen:   30 * time.Minute,
		SampleEvery: 5 * time.Minute,
		MaxSpikes:   0.5,
		MinWeight:   0.8,
		MergeFactor: 1,
	}
}

// stablePoints is the number of consecutive points a segment needs to be
// stable: StableLen expressed in samples.
func (p Params) stablePoints() int {
	if p.SampleEvery <= 0 {
		return 1
	}
	n := int(p.StableLen / p.SampleEvery)
	if n < 1 {
		n = 1
	}
	return n
}

// Point is one latency measurement extracted from a thumbnail.
type Point struct {
	T time.Time
	// Ms is the primary latency value.
	Ms float64
	// Alt is the alternative value from the disagreeing OCR engine
	// (§3.2); valid when HasAlt.
	Alt    float64
	HasAlt bool
}

// Stream is a sequence of measurements from one streamer playing one game
// during one broadcast session (§3.3.1). Points are in chronological order,
// nominally 5 minutes apart (possibly more when the streamer idles).
type Stream struct {
	Streamer string
	Game     string
	Location geo.Location
	Points   []Point
}

// Flag classifies what happened to a segment during anomaly detection.
type Flag int

// Segment flags, in the order they can be assigned by the pipeline.
const (
	// FlagNone marks a stable segment, or an unstable one before analysis.
	FlagNone Flag = iota
	// FlagGlitch marks an unstable segment detected as a glitch (sharp
	// latency decrease, typically a digit-drop image-processing error).
	FlagGlitch
	// FlagSpike marks an unstable segment detected as a spike (latency
	// increase from a real technical problem).
	FlagSpike
	// FlagAbsorbed marks an unstable segment left as-is by cleanup because
	// it is within LatGap of a stable neighbor (the green square in Fig. 1d).
	FlagAbsorbed
	// FlagDiscarded marks a segment dropped by cleanup or failed correction.
	FlagDiscarded
	// FlagCorrected marks a glitch/spike segment successfully repaired with
	// alternative values.
	FlagCorrected
)

func (f Flag) String() string {
	switch f {
	case FlagNone:
		return "none"
	case FlagGlitch:
		return "glitch"
	case FlagSpike:
		return "spike"
	case FlagAbsorbed:
		return "absorbed"
	case FlagDiscarded:
		return "discarded"
	case FlagCorrected:
		return "corrected"
	}
	return "unknown"
}

// Segment is a same-QoE run of points within one stream (§3.3.1).
type Segment struct {
	// StreamIdx indexes the owning stream in the analysis input.
	StreamIdx int
	// Start and End delimit the point range [Start, End) in the stream.
	Start, End int
	// Min and Max are the extreme latency values in the segment (after
	// correction, the corrected values).
	Min, Max float64
	// Stable reports whether the segment has at least StableLen points.
	Stable bool
	// Flag records the anomaly-detection outcome.
	Flag Flag
}

// Len returns the number of points in the segment.
func (s *Segment) Len() int { return s.End - s.Start }

// Spike is a detected latency-increase anomaly, used for shared-anomaly
// detection (App. F) and behavior analysis (§6).
type Spike struct {
	Streamer string
	Game     string
	Location geo.Location
	// Start and End bound the spike in time.
	Start, End time.Time
	// Size is how far the spike's minimum latency exceeded the neighboring
	// stable maximum, in ms (§6 groups spikes by this size).
	Size float64
	// Points is the number of measurements in the spike.
	Points int
	// StreamIdx identifies which input stream contained the spike.
	StreamIdx int
}

// Glitch is a detected latency-decrease anomaly (typically an
// image-processing digit drop).
type Glitch struct {
	Streamer   string
	Game       string
	Start, End time.Time
	// Drop is how far below the neighboring stable minimum the glitch fell.
	Drop   float64
	Points int
}
