package worldsim

import (
	"math/rand"
	"testing"
	"time"

	"tero/internal/games"
	"tero/internal/geo"
	"tero/internal/imageproc"
)

func testWorld(t *testing.T, n int) *World {
	t.Helper()
	cfg := DefaultConfig(42)
	cfg.Streamers = n
	return New(cfg)
}

func TestWorldDeterministic(t *testing.T) {
	w1 := testWorld(t, 50)
	w2 := testWorld(t, 50)
	for i := range w1.Streamers {
		a, b := w1.Streamers[i], w2.Streamers[i]
		if a.ID != b.ID || a.Place != b.Place || a.Username != b.Username {
			t.Fatal("world generation not deterministic")
		}
		s1 := w1.Sessions(a)
		s2 := w2.Sessions(b)
		if len(s1) != len(s2) {
			t.Fatal("sessions not deterministic")
		}
		for j := range s1 {
			if len(s1[j].TrueMs) != len(s2[j].TrueMs) {
				t.Fatal("session lengths differ")
			}
			for k := range s1[j].TrueMs {
				if s1[j].TrueMs[k] != s2[j].TrueMs[k] {
					t.Fatal("latency series differ")
				}
			}
		}
	}
}

func TestStreamersHaveValidFields(t *testing.T) {
	w := testWorld(t, 300)
	if len(w.Streamers) != 300 {
		t.Fatal("population size")
	}
	ids := map[string]bool{}
	for _, st := range w.Streamers {
		if ids[st.ID] {
			t.Fatal("duplicate ID")
		}
		ids[st.ID] = true
		if st.Place == nil || len(st.Games) == 0 {
			t.Fatalf("incomplete streamer %+v", st)
		}
		if st.AccessExtra < 0 || st.JitterStd <= 0 {
			t.Fatal("bad latency params")
		}
		if w.ByID(st.ID) != st {
			t.Fatal("ByID broken")
		}
	}
}

func TestGeographyFollowsTwitchWeights(t *testing.T) {
	w := testWorld(t, 3000)
	byCont := map[geo.Continent]int{}
	for _, st := range w.Streamers {
		byCont[st.Place.Continent]++
	}
	// The Americas + Europe must dominate (Fig. 7), and China's zero
	// weight must keep Asia below its population share.
	amEu := byCont[geo.NorthAmerica] + byCont[geo.SouthAmerica] + byCont[geo.Europe]
	if float64(amEu) < 0.6*3000 {
		t.Fatalf("Americas+Europe = %d/3000, want dominant", amEu)
	}
	if byCont[geo.Asia] > amEu {
		t.Fatal("Asia should be under-represented vs Americas+Europe")
	}
	if byCont[geo.Africa] > 3000/10 {
		t.Fatalf("Africa overrepresented: %d", byCont[geo.Africa])
	}
}

func TestLatencyModelOrdering(t *testing.T) {
	w := testWorld(t, 10)
	lol := games.ByName("lol")
	gaz := w.Gaz
	st := w.Streamers[0]
	st.AccessExtra = 8

	seoul := gaz.City("Seoul", "South Korea")
	hawaii := gaz.Region("Hawaii", "United States")
	krServer := lol.ServerByName("KR")
	naServer := lol.ServerByName("NA")

	krMs := w.BaseLatencyMs(st, seoul, lol, krServer)
	hiMs := w.BaseLatencyMs(st, hawaii, lol, naServer)
	if krMs >= hiMs {
		t.Fatalf("Seoul->KR (%.1f) should be far below Hawaii->Chicago (%.1f)", krMs, hiMs)
	}
	if krMs < 3 || krMs > 30 {
		t.Fatalf("Seoul->KR = %.1f ms, want ~5-20", krMs)
	}
	if hiMs < 70 || hiMs > 160 {
		t.Fatalf("Hawaii->Chicago = %.1f ms, want ~90-130", hiMs)
	}
}

func TestRegionalDisparity(t *testing.T) {
	// DC and Missouri are both within ~1000 km of the Chicago server, but
	// DC's infrastructure term must make it much worse (Fig. 10a).
	w := testWorld(t, 2)
	lol := games.ByName("lol")
	na := lol.ServerByName("NA")
	st := w.Streamers[0]
	st.AccessExtra = 8
	dc := w.Gaz.Region("District of Columbia", "United States")
	mo := w.Gaz.Region("Missouri", "United States")
	dcMs := w.BaseLatencyMs(st, dc, lol, na)
	moMs := w.BaseLatencyMs(st, mo, lol, na)
	if dcMs-moMs < 20 {
		t.Fatalf("DC (%.1f) - Missouri (%.1f) = %.1f, want ≥ 20ms disparity",
			dcMs, moMs, dcMs-moMs)
	}
}

func TestSessionsShape(t *testing.T) {
	w := testWorld(t, 200)
	totalSessions := 0
	totalPoints := 0
	spikes := 0
	serverChanges := 0
	gameChanges := 0
	for _, st := range w.Streamers {
		for _, gs := range w.Sessions(st) {
			totalSessions++
			totalPoints += len(gs.TrueMs)
			spikes += len(gs.Spikes)
			if gs.ServerChangeIdx >= 0 {
				serverChanges++
				if gs.ServerFrom == gs.ServerTo || gs.ServerTo == "" {
					t.Fatal("bad server change annotation")
				}
			}
			if gs.GameChange {
				gameChanges++
			}
			// Cadence: consecutive points at least 5 minutes apart (§3.3.1).
			for i := 1; i < len(gs.Times); i++ {
				gap := gs.Times[i].Sub(gs.Times[i-1])
				if gap < 5*time.Minute {
					t.Fatalf("gap %v < 5 min", gap)
				}
				if gap > time.Hour {
					t.Fatalf("gap %v too large", gap)
				}
			}
			for _, ms := range gs.TrueMs {
				if ms < 1 || ms > 500 {
					t.Fatalf("latency %v out of range", ms)
				}
			}
		}
	}
	if totalSessions < 200 {
		t.Fatalf("sessions = %d, want plenty", totalSessions)
	}
	if spikes == 0 {
		t.Fatal("no spikes generated")
	}
	if serverChanges == 0 {
		t.Fatal("no server changes generated")
	}
	if gameChanges == 0 {
		t.Fatal("no game changes generated")
	}
	// Server changes are rare (paper: ~3% of tuples).
	if float64(serverChanges) > 0.15*float64(totalSessions) {
		t.Fatalf("server changes too common: %d/%d", serverChanges, totalSessions)
	}
}

func TestSpikesDriveChanges(t *testing.T) {
	// Sessions with spikes must change servers/games more often: the
	// ground-truth correlation Table 5 recovers.
	w := testWorld(t, 800)
	var withSpikes, withSpikesChanged, noSpikes, noSpikesChanged int
	for _, st := range w.Streamers {
		for _, gs := range w.Sessions(st) {
			changed := 0
			if gs.GameChange {
				changed = 1
			}
			if len(gs.Spikes) > 0 {
				withSpikes++
				withSpikesChanged += changed
			} else {
				noSpikes++
				noSpikesChanged += changed
			}
		}
	}
	if withSpikes == 0 || noSpikes == 0 {
		t.Fatal("degenerate split")
	}
	rateW := float64(withSpikesChanged) / float64(withSpikes)
	rateN := float64(noSpikesChanged) / float64(noSpikes)
	if rateW <= rateN {
		t.Fatalf("game-change rate with spikes (%.3f) must exceed without (%.3f)", rateW, rateN)
	}
}

func TestToStreamObservationErrors(t *testing.T) {
	w := testWorld(t, 100)
	rng := rand.New(rand.NewSource(5))
	obs := DefaultObservation()
	var total, kept int
	for _, st := range w.Streamers[:50] {
		for _, gs := range w.Sessions(st) {
			total += len(gs.TrueMs)
			cs := gs.ToStream(obs, rng)
			kept += len(cs.Points)
			if cs.Streamer != st.ID || cs.Location.IsZero() {
				t.Fatal("stream metadata")
			}
		}
	}
	if total == 0 {
		t.Fatal("no points")
	}
	frac := float64(kept) / float64(total)
	// MissProb 0.28 plus zero-placeholder skips: keep ~65-75%.
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("kept fraction = %.2f", frac)
	}
	// No-error config keeps everything except lobby zeros.
	rng2 := rand.New(rand.NewSource(6))
	gs := w.Sessions(w.Streamers[0])[0]
	cs := gs.ToStream(ObservationConfig{}, rng2)
	if len(cs.Points) != len(gs.TrueMs)-len(gs.ZeroIdx) {
		t.Fatalf("no-error points = %d, want %d", len(cs.Points), len(gs.TrueMs)-len(gs.ZeroIdx))
	}
}

func TestDigitDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := digitDrop(45, rng); got != 5 {
		t.Fatalf("digitDrop(45) = %v", got)
	}
	got := digitDrop(110, rng)
	if got != 10 && got != 0 {
		t.Fatalf("digitDrop(110) = %v", got)
	}
	if got := digitDrop(7, rng); got != 7 {
		t.Fatalf("digitDrop(7) = %v", got)
	}
}

func TestProfilesPopulation(t *testing.T) {
	w := testWorld(t, 2000)
	var withDesc, withTwitter, withBacklink, withTag, impersonated int
	for _, st := range w.Streamers {
		p := st.Profile
		if p.Description == "" {
			t.Fatal("empty description")
		}
		if p.DescriptionHasLocation {
			withDesc++
		}
		if p.HasTwitter {
			withTwitter++
			if p.TwitterBacklink {
				withBacklink++
			}
		}
		if p.CountryTag != "" {
			withTag++
		}
		if p.Impersonator {
			impersonated++
			if p.ImpersonatorPlace == nil {
				t.Fatal("impersonator without place")
			}
		}
	}
	if withDesc == 0 || withDesc > 300 {
		t.Fatalf("descriptions with location = %d, want a small minority", withDesc)
	}
	if withTwitter < 800 || withTwitter > 1200 {
		t.Fatalf("twitter = %d", withTwitter)
	}
	if withTag < 100 || withTag > 250 {
		t.Fatalf("tags = %d (paper: ~7.6%%)", withTag)
	}
	if impersonated == 0 {
		t.Fatal("no impersonators generated")
	}
}

func TestRenderThumbnailExtractable(t *testing.T) {
	// Clean renders must be readable by the image-processing module for
	// every game; corrupted renders produce the documented failure modes.
	w := testWorld(t, 60)
	rng := rand.New(rand.NewSource(9))
	e := imageproc.New()
	clean := RenderOptions{} // no corruption
	okCount, total := 0, 0
	for _, st := range w.Streamers[:30] {
		sessions := w.Sessions(st)
		if len(sessions) == 0 {
			continue
		}
		gs := sessions[0]
		if len(gs.TrueMs) == 0 {
			continue
		}
		img, truth := RenderThumbnail(gs, 0, clean, rng)
		ex := e.Extract(img, gs.Game)
		total++
		if truth.ShownMs == 0 {
			continue
		}
		if ex.OK && ex.Value == truth.ShownMs {
			okCount++
		}
	}
	if total == 0 {
		t.Fatal("nothing rendered")
	}
	if float64(okCount) < 0.9*float64(total) {
		t.Fatalf("clean extraction rate = %d/%d, want ≥ 90%%", okCount, total)
	}
}

func TestRenderOcclusionDropsDigits(t *testing.T) {
	w := testWorld(t, 10)
	rng := rand.New(rand.NewSource(3))
	e := imageproc.New()
	opt := RenderOptions{OcclusionProb: 1} // always occlude
	st := w.Streamers[0]
	gs := w.Sessions(st)[0]
	wrongOrMissing := 0
	trials := 0
	for i := range gs.TrueMs {
		if gs.TrueMs[i] < 10 || gs.ZeroIdx[i] {
			continue
		}
		img, truth := RenderThumbnail(gs, i, opt, rng)
		if !truth.Occluded {
			t.Fatal("occlusion not applied")
		}
		trials++
		ex := e.Extract(img, gs.Game)
		if !ex.OK || ex.Value != truth.ShownMs {
			wrongOrMissing++
		}
	}
	if trials == 0 {
		t.Skip("no eligible points")
	}
	if wrongOrMissing < trials/2 {
		t.Fatalf("occlusion had little effect: %d/%d", wrongOrMissing, trials)
	}
}

func TestMoversChangePlace(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Streamers = 500
	cfg.MoverFrac = 0.2
	w := New(cfg)
	movers := 0
	for _, st := range w.Streamers {
		if st.MovedTo == nil {
			continue
		}
		movers++
		before := st.PlaceAt(cfg.Start)
		after := st.PlaceAt(cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour))
		if before != st.Place {
			t.Fatal("PlaceAt before move")
		}
		if after != st.MovedTo {
			t.Fatal("PlaceAt after move")
		}
	}
	if movers < 50 {
		t.Fatalf("movers = %d", movers)
	}
}
