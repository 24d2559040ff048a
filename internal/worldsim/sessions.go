package worldsim

import (
	"math"
	"math/rand"
	"time"

	"tero/internal/core"
	"tero/internal/games"
)

// SpikeTruth is a ground-truth injected spike.
type SpikeTruth struct {
	AtIdx  int
	Len    int
	SizeMs float64
}

// GenStream is one generated broadcast session with full ground truth.
type GenStream struct {
	Streamer *Streamer
	Game     *games.Game
	// Start and Points mirror the emitted core.Stream.
	Start  time.Time
	Times  []time.Time
	TrueMs []float64
	// Spikes injected (before any observation error).
	Spikes []SpikeTruth
	// ServerChangeIdx is the point index at which the streamer switched
	// servers mid-stream (-1 = none).
	ServerChangeIdx int
	ServerFrom      string
	ServerTo        string
	// GameChange marks that the streamer switched to another game right
	// after this stream (the §6 game-change outcome).
	GameChange bool
	// ZeroIdx lists lobby points where the display shows the 0 placeholder
	// (rendered thumbnails show 0; data streams skip them).
	ZeroIdx map[int]bool
}

// behaviourWeights returns (base change probability, per-spike weight as a
// function of spike size) for server changes of one game. Game changes use
// the same shape with a ~8× multiplier — matching Table 5's order-of-
// magnitude gap.
func behaviourWeights(slug string) (base float64, w func(size float64) float64) {
	switch slug {
	case "lol", "tft":
		return 0.008, func(s float64) float64 { return 0.0045 }
	case "cod", "apex":
		return 0.006, func(s float64) float64 { return 0.0015 + 0.00016*s }
	case "genshin":
		return 0.008, func(s float64) float64 { return 0.0065 }
	case "dota2":
		return 0.007, func(s float64) float64 { return 0.0030 + 0.00008*s }
	case "amongus":
		return 0.010, func(s float64) float64 { return 0.012 }
	case "lostark":
		return 0.006, func(s float64) float64 {
			if s >= 20 {
				return 0.015
			}
			return 0.004
		}
	default:
		return 0.007, func(s float64) float64 { return 0.004 }
	}
}

// Sessions generates all broadcast sessions of one streamer over the
// configured period, deterministically.
func (w *World) Sessions(st *Streamer) []*GenStream {
	rng := rand.New(rand.NewSource(st.rngSeed))
	var out []*GenStream
	game := st.Games[0]
	for day := 0; day < w.Cfg.Days; day++ {
		if rng.Float64() > 0.55 {
			continue // not streaming today
		}
		// Start in the local evening.
		localStart := 16 + rng.Float64()*6
		utcStart := localStart - st.Place.Lon/15
		start := w.Cfg.Start.Add(time.Duration(day) * 24 * time.Hour).
			Add(time.Duration(utcStart * float64(time.Hour)))
		hours := 1 + rng.Float64()*4
		gs := w.genSession(st, game, start, hours, rng)
		out = append(out, gs)
		// Game rotation: spike-driven changes (GameChange) or routine
		// variety switches.
		if gs.GameChange || (len(st.Games) > 1 && rng.Float64() < 0.15) {
			next := st.Games[rng.Intn(len(st.Games))]
			if next == game && len(st.Games) > 1 {
				next = st.Games[(rng.Intn(len(st.Games)-1)+1+indexOf(st.Games, game))%len(st.Games)]
			}
			game = next
		}
	}
	return out
}

func indexOf(gs []*games.Game, g *games.Game) int {
	for i, x := range gs {
		if x == g {
			return i
		}
	}
	return 0
}

// genSession generates one session.
func (w *World) genSession(st *Streamer, g *games.Game, start time.Time, hours float64, rng *rand.Rand) *GenStream {
	gs := &GenStream{
		Streamer: st, Game: g, Start: start,
		ServerChangeIdx: -1,
		ZeroIdx:         make(map[int]bool),
	}
	srv := w.PrimaryServer(st, g, start)
	// Occasionally the streamer plays on a non-primary server throughout
	// (crowd preference, §2.1).
	if srv != nil && rng.Float64() < 0.02 {
		if alt := w.AlternateServer(st, g, start, rng); alt != nil {
			srv = alt
		}
	}

	// Thumbnail cadence: 5 min (configurable) + up to ~20% jitter
	// (Fig. 13), with occasional skipped thumbnails (streamer idling).
	cadence := w.Cfg.CadenceSec
	if cadence <= 0 {
		cadence = 300
	}
	end := start.Add(time.Duration(hours * float64(time.Hour)))
	t := start
	for t.Before(end) {
		gs.Times = append(gs.Times, t)
		gap := cadence + rng.Float64()*cadence*0.185
		if rng.Float64() < 0.07 {
			gap += cadence * (1 + rng.Float64()) // skipped sample
		}
		t = t.Add(time.Duration(gap * float64(time.Second)))
	}
	n := len(gs.Times)
	if n == 0 {
		return gs
	}

	// Spikes: Poisson over the session. Durations are wall-time (5 or 10
	// minutes), so denser sampling sees the same physical event as more
	// points.
	expected := st.SpikeRatePerHour * hours
	nSpikes := poisson(rng, expected)
	for k := 0; k < nSpikes && n > 2; k++ {
		at := 1 + rng.Intn(n-2)
		size := 8 + rng.ExpFloat64()*16
		if size > 120 {
			size = 120
		}
		durSec := 300.0
		if rng.Float64() < 0.3 {
			durSec = 600
		}
		ln := int(durSec / cadence)
		if ln < 1 {
			ln = 1
		}
		gs.Spikes = append(gs.Spikes, SpikeTruth{AtIdx: at, Len: ln, SizeMs: size})
	}

	// Behaviour: spikes drive server changes (and game changes ~8× more,
	// §6). Only games with a known multi-server fleet can host a server
	// change.
	baseP, weight := behaviourWeights(g.Slug)
	pServer := baseP * 0.5
	pGame := baseP * 2
	for _, sp := range gs.Spikes {
		pServer += weight(sp.SizeMs)
		pGame += weight(sp.SizeMs) * 8
	}
	canChangeServer := srv != nil && len(g.Servers) >= 2 && n > 16
	if canChangeServer && rng.Float64() < pServer {
		if alt := w.AlternateServer(st, g, start, rng); alt != nil && alt != srv {
			// The player finishes the current match first: the change lands
			// half an hour or so after the triggering spike, leaving a
			// stable stretch between spike and switch.
			idx := n / 2
			if len(gs.Spikes) > 0 {
				last := gs.Spikes[len(gs.Spikes)-1]
				idx = last.AtIdx + last.Len + 7 + rng.Intn(4)
			}
			if idx < n-2 {
				gs.ServerChangeIdx = idx
				gs.ServerFrom = srv.Name
				gs.ServerTo = alt.Name
			}
		}
	}
	if rng.Float64() < pGame && len(st.Games) > 1 {
		gs.GameChange = true
	}

	// Latency series.
	gs.TrueMs = make([]float64, n)
	cur := srv
	var altSrv *games.Server
	if gs.ServerChangeIdx >= 0 {
		altSrv = g.ServerByName(gs.ServerTo)
	}
	for i := 0; i < n; i++ {
		if gs.ServerChangeIdx >= 0 && i >= gs.ServerChangeIdx {
			cur = altSrv
		}
		ms := w.LatencyAt(st, g, cur, gs.Times[i], rng)
		gs.TrueMs[i] = math.Round(ms)
		if g.ZeroWhileWaiting && rng.Float64() < 0.015 {
			gs.ZeroIdx[i] = true
		}
	}
	// Apply spikes on top.
	for _, sp := range gs.Spikes {
		for k := 0; k < sp.Len && sp.AtIdx+k < n; k++ {
			gs.TrueMs[sp.AtIdx+k] = math.Round(gs.TrueMs[sp.AtIdx+k] + sp.SizeMs)
		}
	}
	return gs
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// ObservationConfig controls the measurement-error injection used when
// bypassing the rendered-thumbnail path (the "direct" pipeline used by the
// regional-latency experiments).
type ObservationConfig struct {
	// DigitDropProb is the chance a point's leading digit is hidden by an
	// on-screen element (§3.2.1: the dominant error, 68% of wrong values).
	DigitDropProb float64
	// ConfusionProb is the chance of a small digit confusion (101→107).
	ConfusionProb float64
	// AltProb is the chance a wrong value carries the correct alternative
	// (the third OCR engine disagreed usefully).
	AltProb float64
	// MissProb is the chance a thumbnail yields no measurement at all.
	MissProb float64
}

// DefaultObservation matches the §4.2.2 error rates.
func DefaultObservation() ObservationConfig {
	return ObservationConfig{
		DigitDropProb: 0.025,
		ConfusionProb: 0.012,
		AltProb:       0.6,
		MissProb:      0.28,
	}
}

// ToStream converts a generated session into the core.Stream Tero's
// data-analysis module consumes, injecting observation errors.
func (gs *GenStream) ToStream(obs ObservationConfig, rng *rand.Rand) core.Stream {
	st := core.Stream{
		Streamer: gs.Streamer.ID,
		Game:     gs.Game.Name,
		Location: gs.Streamer.PlaceAt(gs.Start).Location(),
	}
	for i, tms := range gs.TrueMs {
		if gs.ZeroIdx[i] {
			continue // lobby placeholder: discarded at extraction
		}
		if rng.Float64() < obs.MissProb {
			continue
		}
		v := tms
		hasAlt := false
		alt := 0.0
		switch {
		case rng.Float64() < obs.DigitDropProb:
			v = digitDrop(tms, rng)
			if rng.Float64() < obs.AltProb {
				alt, hasAlt = tms, true
			}
		case rng.Float64() < obs.ConfusionProb:
			v = digitConfuse(tms, rng)
			if rng.Float64() < obs.AltProb {
				alt, hasAlt = tms, true
			}
		}
		st.Points = append(st.Points, core.Point{
			T: gs.Times[i], Ms: v, Alt: alt, HasAlt: hasAlt,
		})
	}
	return st
}

// digitDrop removes the most significant digit(s): 45 → 5, 110 → 10.
func digitDrop(v float64, rng *rand.Rand) float64 {
	n := int(v)
	switch {
	case n >= 100:
		if rng.Float64() < 0.5 {
			return float64(n % 100)
		}
		return float64(n % 10)
	case n >= 10:
		return float64(n % 10)
	default:
		return float64(n)
	}
}

// digitConfuse perturbs one digit slightly (101 → 107).
func digitConfuse(v float64, rng *rand.Rand) float64 {
	n := int(v)
	d := rng.Intn(9) - 4
	out := n + d
	if out < 1 {
		out = 1
	}
	return float64(out)
}
