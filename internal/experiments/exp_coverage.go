package experiments

import (
	"fmt"
	"sort"
	"time"

	"tero/internal/geo"
	"tero/internal/stats"
	"tero/internal/worldsim"
)

func init() {
	register("fig7", "distribution of Tero users, Internet users and population by continent (Fig. 7)", runFig7)
	register("fig8", "uneven-ness of measurement timing per 5-minute interval (Fig. 8)", runFig8)
	register("fig13", "CDF of thumbnail inter-arrival time (Fig. 13)", runFig13)
}

func runFig7(o Options) ([]*Table, error) {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(8000)
	world := worldsim.New(cfg)
	gaz := world.Gaz

	teroUsers := map[geo.Continent]float64{}
	for _, st := range world.Streamers {
		teroUsers[st.Place.Continent]++
	}
	population := map[geo.Continent]float64{}
	internet := map[geo.Continent]float64{}
	for _, c := range gaz.All(geo.KindCountry) {
		population[c.Continent] += float64(c.Pop)
		internet[c.Continent] += float64(c.Pop) * c.InternetFrac
	}
	norm := func(m map[geo.Continent]float64) map[geo.Continent]float64 {
		tot := 0.0
		for _, v := range m {
			tot += v
		}
		out := map[geo.Continent]float64{}
		for k, v := range m {
			out[k] = v / tot
		}
		return out
	}
	tero := norm(teroUsers)
	inet := norm(internet)
	pop := norm(population)

	t := &Table{
		Title:  "Fig. 7: distribution by continent (%)",
		Header: []string{"continent", "Tero users", "Internet users", "population"},
		Notes: []string{
			"expected shape: Tero concentrated in the Americas and Europe;",
			"Asia under-represented (Twitch competes with local platforms there)",
		},
	}
	for _, c := range geo.Continents {
		t.AddRow(string(c), pct(tero[c]), pct(inet[c]), pct(pop[c]))
	}
	return []*Table{t}, nil
}

func runFig8(o Options) ([]*Table, error) {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(4000)
	world := worldsim.New(cfg)

	// Group measurement timestamps per {location, 5-minute interval} and
	// compute the uneven-ness score per group, bucketed by the number of
	// active streamers in the interval.
	window := 5 * time.Minute
	type groupKey struct {
		loc  string
		slot int64
	}
	times := map[groupKey][]float64{}
	streamers := map[groupKey]map[string]bool{}
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for _, tm := range gs.Times {
				k := groupKey{st.Place.Location().Key(), tm.Unix() / int64(window.Seconds())}
				off := float64(tm.Unix()%int64(window.Seconds())) +
					float64(tm.Nanosecond())/1e9
				times[k] = append(times[k], off)
				if streamers[k] == nil {
					streamers[k] = map[string]bool{}
				}
				streamers[k][st.ID] = true
			}
		}
	}
	byCount := map[int][]float64{}
	for k, ts := range times {
		n := len(streamers[k])
		if n < 2 {
			continue
		}
		if n > 5 {
			n = 5
		}
		byCount[n] = append(byCount[n], stats.UnevennessScore(ts, window.Seconds()))
	}

	t := &Table{
		Title:  "Fig. 8: uneven-ness score CDF by streamers per 5-minute interval",
		Header: []string{"streamers/interval", "n groups", "p50", "p80", "p95"},
		Notes:  []string{"paper: with 3 active streamers, 80% of intervals lean uniform (score < ~0.5)"},
	}
	counts := make([]int, 0, len(byCount))
	for n := range byCount {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	for _, n := range counts {
		scores := byCount[n]
		label := fmt.Sprintf("%d", n)
		if n == 5 {
			label = "5+"
		}
		t.AddRow(label, itoa(len(scores)),
			f2(stats.Percentile(scores, 50)),
			f2(stats.Percentile(scores, 80)),
			f2(stats.Percentile(scores, 95)))
	}
	return []*Table{t}, nil
}

func runFig13(o Options) ([]*Table, error) {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(2000)
	world := worldsim.New(cfg)

	var gaps []float64
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for i := 1; i < len(gs.Times); i++ {
				gaps = append(gaps, gs.Times[i].Sub(gs.Times[i-1]).Seconds())
			}
		}
	}
	t := &Table{
		Title:  "Fig. 13: CDF of thumbnail inter-arrival time",
		Header: []string{"percentile", "seconds"},
		Notes:  []string{"paper: 90th percentile ≈ 360 s (2×: the 12-minute shared-anomaly window)"},
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		t.AddRow(fmt.Sprintf("p%.0f", p), f1(stats.Percentile(gaps, p)))
	}
	return []*Table{t}, nil
}
