package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tero/internal/core"
	"tero/internal/worldsim"
)

func init() {
	register("dense",
		"future direction (§2.2): what denser per-streamer sampling would buy",
		runDense)
}

// runDense quantifies the paper's §2.2 limitation: thumbnails arrive every
// 5 minutes, so short spikes slip between samples. It compares spike
// detection recall at the Twitch cadence against 1-minute sampling
// (extracting latency from the video stream itself, the step the paper
// deferred for Terms-of-Service reasons).
func runDense(o Options) ([]*Table, error) {
	t := &Table{
		Title: "Dense sampling: spike-detection recall vs. cadence",
		Header: []string{"cadence", "points/stream", "true spikes",
			"detected", "recall >=15ms", "recall >=30ms"},
	}
	for _, cadence := range []float64{300, 120, 60} {
		cfg := worldsim.DefaultConfig(o.Seed)
		cfg.Streamers = o.scaled(600)
		cfg.Days = 5
		cfg.CadenceSec = cadence
		world := worldsim.New(cfg)

		params := core.DefaultParams()
		params.SampleEvery = time.Duration(cadence) * time.Second
		obs := worldsim.DefaultObservation()
		rng := rand.New(rand.NewSource(o.Seed + 21))

		var totalTrue, totalDetected, matched, points, streams int
		var bigTrue, bigMatched int
		for _, st := range world.Streamers {
			if st.Problem {
				continue
			}
			grouped := map[string][]*worldsim.GenStream{}
			for _, gs := range world.Sessions(st) {
				grouped[gs.Game.Name] = append(grouped[gs.Game.Name], gs)
			}
			for _, game := range sortedKeys(grouped) {
				group := grouped[game]
				var css []core.Stream
				for _, gs := range group {
					css = append(css, gs.ToStream(obs, rng))
					points += len(gs.TrueMs)
					streams++
				}
				a := core.Analyze(css, params)
				if a.Discarded {
					continue
				}
				totalDetected += len(a.Spikes)
				// Match detected spikes to ground truth by time overlap.
				for _, gs := range group {
					for _, sp := range gs.Spikes {
						if sp.SizeMs < params.LatGap {
							continue // undetectable by design
						}
						big := sp.SizeMs >= 30
						totalTrue++
						if big {
							bigTrue++
						}
						t0 := gs.Times[sp.AtIdx]
						t1 := gs.Times[min(sp.AtIdx+sp.Len, len(gs.Times)-1)]
						for _, det := range a.Spikes {
							if !det.End.Before(t0.Add(-2*time.Minute)) &&
								!det.Start.After(t1.Add(2*time.Minute)) {
								matched++
								if big {
									bigMatched++
								}
								break
							}
						}
					}
				}
			}
		}
		recall, bigRecall := 0.0, 0.0
		if totalTrue > 0 {
			recall = float64(matched) / float64(totalTrue)
		}
		if bigTrue > 0 {
			bigRecall = float64(bigMatched) / float64(bigTrue)
		}
		pps := 0
		if streams > 0 {
			pps = points / streams
		}
		t.AddRow(fmt.Sprintf("%.0fs", cadence), itoa(pps), itoa(totalTrue),
			itoa(totalDetected), pct(recall), pct(bigRecall))
	}
	t.Notes = append(t.Notes,
		"true spikes below LatGap are excluded (undetectable by definition)",
		"recall is bounded by LatGap, not cadence: spikes near the perceivability",
		"threshold are invisible at any sampling rate — denser data mostly buys",
		"more points per spike (better size estimates), not more detections")
	return []*Table{t}, nil
}
