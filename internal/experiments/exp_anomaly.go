package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tero/internal/anomaly"
	"tero/internal/core"
	"tero/internal/stats"
	"tero/internal/worldsim"
)

func init() {
	register("fig17", "glitch overlap: QoE-based vs anomaly-detection baselines (Fig. 17)", runFig17)
	register("fig18", "spike overlap: QoE-based vs anomaly-detection baselines (Fig. 18)", runFig18)
	register("shared", "shared-anomaly detection with an injected game-release event (§4.2.3)", runShared)
	register("pelt", "PELT changepoint baseline on streamer series (§3.3.2)", runPELT)
}

// overlapExperiment compares core's QoE-based spike/glitch detection with a
// baseline detector, App. J-style: significant anomalies found by both,
// only by the baseline, and only by the QoE technique.
func overlapExperiment(o Options, wantSpikes bool) *Table {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(1200)
	world := worldsim.New(cfg)
	obs := worldsim.DefaultObservation()
	params := core.DefaultParams()
	rng := rand.New(rand.NewSource(o.Seed + 31))

	kind := "glitches"
	if wantSpikes {
		kind = "spikes"
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. %s: significant %s by technique", map[bool]string{true: "18", false: "17"}[wantSpikes], kind),
		Header: []string{"baseline", "common", "only baseline", "only QoE"},
	}

	type detCfg struct {
		name string
		mk   func(k int) anomaly.Detector
		ks   []int
	}
	dets := []detCfg{
		{"MCD", func(k int) anomaly.Detector {
			return &anomaly.MCD{Contamination: []float64{0.02, 0.1, 0.3}[k]}
		}, []int{0, 1, 2}},
		{"LOF", func(k int) anomaly.Detector {
			return &anomaly.LOF{K: []int{3, 5, 10}[k], Threshold: 1.5}
		}, []int{0, 1, 2}},
		{"iForests", func(k int) anomaly.Detector {
			return &anomaly.IForest{Trees: 50, SampleSize: 128,
				KIQR: []float64{0.5, 1.0, 2.0}[k], Seed: o.Seed}
		}, []int{0, 1, 2}},
	}

	// Pre-build per-{streamer,game} series with QoE-detected anomaly masks.
	type series struct {
		values  []float64
		qoeMask []bool // significant spikes (or glitches) per point
	}
	var corpus []series
	const sigThreshold = 15.0
	for _, st := range world.Streamers {
		grouped := map[string][]core.Stream{}
		for _, gs := range world.Sessions(st) {
			grouped[gs.Game.Name] = append(grouped[gs.Game.Name], gs.ToStream(obs, rng))
		}
		for _, game := range sortedKeys(grouped) {
			a := core.Analyze(grouped[game], params)
			if a.Discarded {
				continue
			}
			// Flatten the points of all streams, tracking which belong to
			// flagged spike/glitch segments.
			var s series
			offsets := map[int]int{}
			for si := range a.Streams {
				offsets[si] = len(s.values)
				for _, pt := range a.Streams[si].Points {
					s.values = append(s.values, pt.Ms)
				}
			}
			s.qoeMask = make([]bool, len(s.values))
			mean := stats.Mean(s.values)
			for i := range a.Segments {
				seg := &a.Segments[i]
				flagged := (wantSpikes && (seg.Flag == core.FlagSpike || wasSpike(a, seg))) ||
					(!wantSpikes && wasGlitch(a, seg))
				if !flagged {
					continue
				}
				for k := seg.Start; k < seg.End; k++ {
					idx := offsets[seg.StreamIdx] + k
					if idx >= len(s.values) {
						continue
					}
					// Significance: at least sigThreshold from the series mean.
					d := s.values[idx] - mean
					if !wantSpikes {
						d = -d
					}
					if d >= sigThreshold {
						s.qoeMask[idx] = true
					}
				}
			}
			if len(s.values) >= 20 {
				corpus = append(corpus, s)
			}
		}
	}

	for _, dc := range dets {
		var common, onlyAD, onlyQoE float64
		for _, k := range dc.ks {
			det := dc.mk(k)
			var c, ad, qoe int
			for _, s := range corpus {
				mask := det.Detect(s.values)
				spikes, glitches := anomaly.SplitByMean(s.values, mask)
				adMask := glitches
				if wantSpikes {
					adMask = spikes
				}
				mean := stats.Mean(s.values)
				for i := range s.values {
					// Significance for the baseline too.
					d := s.values[i] - mean
					if !wantSpikes {
						d = -d
					}
					sig := d >= sigThreshold
					switch {
					case s.qoeMask[i] && adMask[i] && sig:
						c++
					case adMask[i] && sig && !s.qoeMask[i]:
						ad++
					case s.qoeMask[i] && !adMask[i]:
						qoe++
					}
				}
			}
			tot := float64(c + ad + qoe)
			if tot == 0 {
				continue
			}
			common += float64(c) / tot
			onlyAD += float64(ad) / tot
			onlyQoE += float64(qoe) / tot
		}
		n := float64(len(dc.ks))
		t.AddRow(dc.name, pct(common/n), pct(onlyAD/n), pct(onlyQoE/n))
	}
	t.Notes = append(t.Notes,
		"averaged over each baseline's parameter range (App. J)",
		"paper: baselines flag extra spikes/glitches that are explainable",
		"(server/location changes) or below the LatGap significance bar")
	return t
}

// wasSpike reports whether a segment was originally flagged as a spike
// (corrected/discarded spikes keep their event in a.Spikes).
func wasSpike(a *core.Analysis, seg *core.Segment) bool {
	if seg.Flag == core.FlagSpike {
		return true
	}
	if seg.Flag != core.FlagCorrected && seg.Flag != core.FlagDiscarded {
		return false
	}
	if seg.StreamIdx >= len(a.Streams) {
		return false
	}
	pts := a.Streams[seg.StreamIdx].Points
	if seg.Start >= len(pts) {
		return false
	}
	t0 := pts[seg.Start].T
	for _, sp := range a.Spikes {
		if sp.StreamIdx == seg.StreamIdx && !t0.Before(sp.Start) && !t0.After(sp.End) {
			return true
		}
	}
	return false
}

// wasGlitch mirrors wasSpike for glitches.
func wasGlitch(a *core.Analysis, seg *core.Segment) bool {
	if seg.Flag == core.FlagGlitch {
		return true
	}
	if seg.Flag != core.FlagCorrected && seg.Flag != core.FlagDiscarded {
		return false
	}
	if seg.StreamIdx >= len(a.Streams) {
		return false
	}
	pts := a.Streams[seg.StreamIdx].Points
	if seg.Start >= len(pts) {
		return false
	}
	t0 := pts[seg.Start].T
	for _, g := range a.Glitches {
		if !t0.Before(g.Start) && !t0.After(g.End) {
			return true
		}
	}
	return false
}

func runFig17(o Options) ([]*Table, error) {
	return []*Table{overlapExperiment(o, false)}, nil
}

func runFig18(o Options) ([]*Table, error) {
	return []*Table{overlapExperiment(o, true)}, nil
}

func runShared(o Options) ([]*Table, error) {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(3000)
	cfg.Days = 7
	// Inject a game-release overload: every CoD streamer sees intermittent
	// extra latency for two days (the paper's Nov-16 event, §4.2.3).
	cfg.SharedEvent = &worldsim.SharedEvent{
		GameSlug: "cod",
		Start:    cfg.Start.Add(48 * time.Hour),
		Duration: 48 * time.Hour,
		ExtraMs:  45,
	}
	world := worldsim.New(cfg)
	obs := worldsim.DefaultObservation()
	params := core.DefaultParams()
	rng := rand.New(rand.NewSource(o.Seed + 77))

	var analyses []*core.Analysis
	for _, st := range world.Streamers {
		grouped := map[string][]core.Stream{}
		for _, gs := range world.Sessions(st) {
			grouped[gs.Game.Name] = append(grouped[gs.Game.Name], gs.ToStream(obs, rng))
		}
		for _, game := range sortedKeys(grouped) {
			analyses = append(analyses, core.Analyze(grouped[game], params))
		}
	}
	shared := core.DetectAllSharedAnomalies(analyses, core.DefaultSharedAnomalyConfig())

	t := &Table{
		Title:  "Shared anomalies with an injected game-release overload (CoD, 2 days)",
		Header: []string{"game", "shared anomalies", "in event window", "regions"},
	}
	byGame := map[string][]core.SharedAnomaly{}
	for _, sa := range shared {
		byGame[sa.Key.Game] = append(byGame[sa.Key.Game], sa)
	}
	for _, game := range sortedKeys(byGame) {
		sas := byGame[game]
		inWindow := 0
		regions := map[string]bool{}
		for _, sa := range sas {
			if sa.Start.After(cfg.SharedEvent.Start.Add(-time.Hour)) &&
				sa.End.Before(cfg.SharedEvent.Start.Add(cfg.SharedEvent.Duration).Add(time.Hour)) {
				inWindow++
			}
			regions[sa.Key.Loc.Key()] = true
		}
		t.AddRow(game, itoa(len(sas)), itoa(inWindow), itoa(len(regions)))
	}
	t.Notes = append(t.Notes,
		"expected: the affected game dominates, anomalies cluster in the event window",
		"across many regions (the paper saw 669 shared spikes for one game over 5 days)")
	return []*Table{t}, nil
}

func runPELT(o Options) ([]*Table, error) {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(300)
	world := worldsim.New(cfg)
	obs := worldsim.DefaultObservation()
	rng := rand.New(rand.NewSource(o.Seed + 9))

	t := &Table{
		Title:  "PELT changepoint baseline (the approach §3.3.2 abandoned)",
		Header: []string{"metric", "value"},
	}
	var nSeries, nCps int
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			cs := gs.ToStream(obs, rng)
			if len(cs.Points) < 12 {
				continue
			}
			vals := make([]float64, len(cs.Points))
			for i, p := range cs.Points {
				vals[i] = p.Ms
			}
			cps := anomaly.PELT(vals, anomaly.DefaultPenalty(vals))
			nSeries++
			nCps += len(cps)
		}
	}
	t.AddRow("series processed", itoa(nSeries))
	t.AddRow("changepoints found", itoa(nCps))
	t.Notes = append(t.Notes,
		"the paper found PELT impractical on their data; here it runs but has no",
		"notion of explainable changes (server/location switches) or glitch repair")
	return []*Table{t}, nil
}
