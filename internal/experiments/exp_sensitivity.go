package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tero/internal/core"
	"tero/internal/stats"
	"tero/internal/worldsim"
)

func init() {
	register("fig15", "sensitivity to StableLen and LatGap (Fig. 15)", runFig15)
	register("fig16", "sensitivity to MaxSpikes (Fig. 16)", runFig16)
}

// sensitivityWorld builds the analyses input: per {streamer, game} streams.
func sensitivityWorld(o Options, streamers int) map[string][][]core.Stream {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(streamers)
	world := worldsim.New(cfg)
	obs := worldsim.DefaultObservation()
	rng := rand.New(rand.NewSource(o.Seed + 3))
	byGame := map[string][][]core.Stream{}
	for _, st := range world.Streamers {
		grouped := map[string][]core.Stream{}
		for _, gs := range world.Sessions(st) {
			grouped[gs.Game.Name] = append(grouped[gs.Game.Name], gs.ToStream(obs, rng))
		}
		for _, game := range sortedKeys(grouped) {
			byGame[game] = append(byGame[game], grouped[game])
		}
	}
	return byGame
}

func runFig15(o Options) ([]*Table, error) {
	byGame := sensitivityWorld(o, 1200)
	lolSets := byGame["League of Legends"]

	// Fig. 15a: users/data points remaining and spike/glitch proportions as
	// StableLen grows (LoL, LatGap 15).
	a := &Table{
		Title: "Fig. 15a: StableLen sensitivity (League of Legends, LatGap 15ms)",
		Header: []string{"StableLen [min]", "users kept", "points kept",
			"% spike points", "% glitch points"},
	}
	for _, mins := range []int{5, 15, 25, 35, 45, 55} {
		p := core.DefaultParams()
		p.StableLen = time.Duration(mins) * time.Minute
		var usersKept, usersTotal, ptsKept, ptsTotal, spikePts, glitchPts int
		for _, streams := range lolSets {
			usersTotal++
			a := core.Analyze(streams, p)
			ptsTotal += a.TotalPoints
			if a.Discarded {
				continue
			}
			usersKept++
			ptsKept += a.KeptPoints
			for _, s := range a.Spikes {
				spikePts += s.Points
			}
			for _, g := range a.Glitches {
				glitchPts += g.Points
			}
		}
		if usersTotal == 0 || ptsTotal == 0 {
			continue
		}
		a.AddRow(fmt.Sprintf("%d", mins),
			pct(float64(usersKept)/float64(usersTotal)),
			pct(float64(ptsKept)/float64(ptsTotal)),
			pct(float64(spikePts)/float64(ptsTotal)),
			pct(float64(glitchPts)/float64(ptsTotal)))
	}
	a.Notes = append(a.Notes,
		"paper: users kept drops quickly with StableLen; spikes/glitches grow with it")

	// Fig. 15b: significant spikes vs StableLen for LatGap {8, 15, 25}.
	b := &Table{
		Title:  "Fig. 15b: significant spikes (≥15ms over stream mean) per 1000 points",
		Header: []string{"StableLen [min]", "LatGap 8", "LatGap 15", "LatGap 25"},
	}
	for _, mins := range []int{5, 15, 25, 35, 45, 55} {
		row := []string{fmt.Sprintf("%d", mins)}
		for _, gap := range []float64{8, 15, 25} {
			p := core.DefaultParams()
			p.StableLen = time.Duration(mins) * time.Minute
			p.LatGap = gap
			sig, pts := 0, 0
			for _, streams := range lolSets {
				a := core.Analyze(streams, p)
				pts += a.TotalPoints
				if a.Discarded {
					continue
				}
				for _, sp := range a.Spikes {
					if significantSpike(a, sp, 15) {
						sig++
					}
				}
			}
			if pts == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f2(1000*float64(sig)/float64(pts)))
		}
		b.AddRow(row...)
	}
	b.Notes = append(b.Notes,
		"paper: significant spikes grow quickly for low StableLen, slowing around 25 min",
		"(motivating StableLen = 30 min, matching typical match lengths)")

	// Fig. 15c: proportion of unstable-but-not-anomalous points per user,
	// by LatGap, for three games.
	c := &Table{
		Title:  "Fig. 15c: median proportion of unstable (not spike/glitch) points per user",
		Header: []string{"game", "LatGap 8", "LatGap 15", "LatGap 25"},
	}
	for _, game := range []string{"League of Legends", "Genshin Impact", "Dota 2"} {
		row := []string{game}
		for _, gap := range []float64{8, 15, 25} {
			p := core.DefaultParams()
			p.LatGap = gap
			var fracs []float64
			for _, streams := range byGame[game] {
				a := core.Analyze(streams, p)
				if a.Discarded || a.TotalPoints == 0 {
					continue
				}
				unstable := 0
				for i := range a.Segments {
					s := &a.Segments[i]
					if s.Flag == core.FlagAbsorbed || (s.Flag == core.FlagNone && !s.Stable) {
						unstable += s.Len()
					}
				}
				fracs = append(fracs, float64(unstable)/float64(a.TotalPoints))
			}
			if len(fracs) == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, pct(stats.Median(fracs)))
		}
		c.AddRow(row...)
	}
	c.Notes = append(c.Notes,
		"paper: for LatGap ≥ 15ms the proportion is almost independent of LatGap")
	return []*Table{a, b, c}, nil
}

// significantSpike reports whether a spike exceeds the stream's mean by the
// threshold (App. I's significance notion).
func significantSpike(a *core.Analysis, sp core.Spike, threshold float64) bool {
	if sp.StreamIdx >= len(a.Streams) {
		return false
	}
	var vals []float64
	for _, pt := range a.Streams[sp.StreamIdx].Points {
		vals = append(vals, pt.Ms)
	}
	if len(vals) == 0 {
		return false
	}
	return sp.Size >= threshold || sp.Size+stats.Mean(vals) >= stats.Mean(vals)+threshold
}

func runFig16(o Options) ([]*Table, error) {
	byGame := sensitivityWorld(o, 1500)
	params := core.DefaultParams()

	// Analyze everything once (MaxSpikes only gates the quality filter).
	var analyses []*core.Analysis
	for _, game := range sortedKeys(byGame) {
		for _, streams := range byGame[game] {
			analyses = append(analyses, core.Analyze(streams, params))
		}
	}

	// Fig. 16a: CDF of the spike proportion per user.
	a := &Table{
		Title:  "Fig. 16a: distribution of spike proportion per {streamer, game}",
		Header: []string{"percentile", "spike share"},
	}
	var fracs []float64
	for _, an := range analyses {
		if an.Discarded {
			continue
		}
		fracs = append(fracs, an.SpikeFraction)
	}
	for _, p := range []float64{50, 75, 90, 95, 99} {
		a.AddRow(fmt.Sprintf("p%.0f", p), pct(stats.Percentile(fracs, p)))
	}
	a.Notes = append(a.Notes, "paper: the vast majority of users have low spike proportions")

	// Fig. 16b: proportion of spikes and of data points discarded as
	// MaxSpikes varies (users over the limit are dropped).
	b := &Table{
		Title:  "Fig. 16b: data discarded by the MaxSpikes quality filter",
		Header: []string{"MaxSpikes", "% spikes discarded", "% points discarded"},
	}
	// Fig. 16c: spikes and shared anomalies detected vs MaxSpikes.
	c := &Table{
		Title:  "Fig. 16c: spikes and shared anomalies surviving the filter",
		Header: []string{"MaxSpikes", "spikes kept", "shared anomalies"},
	}
	cfgShared := core.DefaultSharedAnomalyConfig()
	for _, maxSpikes := range []float64{0.05, 0.15, 0.25, 0.5, 0.75} {
		var totalSpikes, keptSpikes, totalPts, keptPts int
		var kept []*core.Analysis
		for _, an := range analyses {
			if an.Discarded {
				continue
			}
			nSpikes := len(an.Spikes)
			totalSpikes += nSpikes
			totalPts += an.TotalPoints
			if an.SpikeFraction < maxSpikes {
				keptSpikes += nSpikes
				keptPts += an.TotalPoints
				kept = append(kept, an)
			}
		}
		if totalPts == 0 {
			continue
		}
		label := pct(maxSpikes)
		b.AddRow(label,
			pct(1-float64(keptSpikes)/max(float64(totalSpikes), 1)),
			pct(1-float64(keptPts)/float64(totalPts)))
		shared := core.DetectAllSharedAnomalies(kept, cfgShared)
		c.AddRow(label, itoa(keptSpikes), itoa(len(shared)))
	}
	b.Notes = append(b.Notes,
		"paper: lowering MaxSpikes discards many spikes but few data points")
	return []*Table{a, b, c}, nil
}
