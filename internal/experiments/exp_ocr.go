package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"tero/internal/core"
	"tero/internal/games"
	"tero/internal/imageproc"
	"tero/internal/imaging"
	"tero/internal/ocr"
	"tero/internal/par"
	"tero/internal/stats"
	"tero/internal/worldsim"
)

func init() {
	register("tab4", "miss and error rates of OCR engines and Tero (Table 4)", runTab4)
	register("fig5", "image-processing and data-analysis error distributions (Fig. 5)", runFig5)
}

// digitsOnly extracts the digit string from raw engine output.
func digitsOnly(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= '0' && r <= '9' {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func runTab4(o Options) ([]*Table, error) {
	n := o.scaled(3000)
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = 400
	cfg.Days = 3
	world := worldsim.New(cfg)
	opt := worldsim.DefaultRenderOptions()
	rng := rand.New(rand.NewSource(o.Seed + 7))
	engines := ocr.Engines()
	extractor := imageproc.New()

	type counter struct{ visible, missed, wrong int }
	perEngine := make([]counter, len(engines))
	var tero counter
	var teroDigitDropWrong int
	rendered := 0

	// Rendering consumes the shared rng and must stay serial; the OCR work
	// dominates and is embarrassingly parallel. Thumbnails are rendered in
	// batches, each batch fans out to the worker pool, and the counters are
	// merged in render order — totals identical to the serial loop.
	type job struct {
		img   *imaging.Gray
		game  *games.Game
		want  string
		shown int
	}
	type outcome struct {
		missed, wrong          []bool // per engine
		tMissed, tWrong, tDrop bool
	}
	const batchSize = 64
	workers := par.Workers(o.Concurrency)
	jobs := make([]job, 0, batchSize)
	outs := make([]outcome, batchSize)
	flush := func() {
		par.For("ocr-corpus", workers, len(jobs), func(i int) {
			j := jobs[i]
			out := outcome{
				missed: make([]bool, len(engines)),
				wrong:  make([]bool, len(engines)),
			}
			crop := j.img.Crop(j.game.UI.CropRect(4))
			for e, eng := range engines {
				got := digitsOnly(eng.Recognize(crop).Text)
				switch {
				case got == "":
					out.missed[e] = true
				case got != j.want:
					out.wrong[e] = true
				}
			}
			imaging.Recycle(crop)
			ex := extractor.Extract(j.img, j.game)
			imaging.Recycle(j.img)
			switch {
			case !ex.OK:
				out.tMissed = true
			case ex.Value != j.shown:
				out.tWrong = true
				out.tDrop = isDigitDrop(j.shown, ex.Value)
			}
			outs[i] = out
		})
		for i := range jobs {
			out := &outs[i]
			for e := range engines {
				perEngine[e].visible++
				switch {
				case out.missed[e]:
					perEngine[e].missed++
				case out.wrong[e]:
					perEngine[e].wrong++
				}
			}
			tero.visible++
			switch {
			case out.tMissed:
				tero.missed++
			case out.tWrong:
				tero.wrong++
				if out.tDrop {
					teroDigitDropWrong++
				}
			}
		}
		jobs = jobs[:0]
	}

sampling:
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for i := range gs.TrueMs {
				if rendered >= n {
					break sampling
				}
				if rng.Float64() > 0.3 {
					continue
				}
				img, truth := worldsim.RenderThumbnail(gs, i, opt, rng)
				rendered++
				// Thumbnails with a visible latency measurement (§H.2
				// considers only those; clock overlays and lobby zeros are
				// no-measurement cases we skip here).
				if truth.Clock || truth.ShownMs <= 0 {
					imaging.Recycle(img)
					continue
				}
				jobs = append(jobs, job{
					img:   img,
					game:  gs.Game,
					want:  fmt.Sprintf("%d", truth.ShownMs),
					shown: truth.ShownMs,
				})
				if len(jobs) == batchSize {
					flush()
				}
			}
		}
	}
	flush()

	t := &Table{
		Title:  "Table 4: miss and error rates of OCR engines and their combination",
		Header: []string{"system", "measurements not extracted", "incorrect measurements"},
		Notes: []string{fmt.Sprintf("%d thumbnails rendered, %d with a visible measurement",
			rendered, tero.visible)},
	}
	names := []string{"EasyOCR (easyscan)", "PaddleOCR (paddleread)", "Tesseract (tessera)"}
	order := []int{1, 2, 0} // paper's row order: EasyOCR, PaddleOCR, Tesseract
	for k, e := range order {
		c := perEngine[e]
		if c.visible == 0 {
			continue
		}
		t.AddRow(names[k],
			pct(float64(c.missed)/float64(c.visible)),
			pct(float64(c.wrong)/float64(c.visible-c.missed)))
	}
	if tero.visible > 0 {
		t.AddRow("Tero",
			pct(float64(tero.missed)/float64(tero.visible)),
			pct(float64(tero.wrong)/float64(tero.visible-tero.missed)))
		if tero.wrong > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"digit drops: %.1f%% of Tero's incorrect values (paper: 68.42%%)",
				100*float64(teroDigitDropWrong)/float64(tero.wrong)))
		}
	}
	return []*Table{t}, nil
}

// isDigitDrop reports whether got is want with leading digit(s) removed.
func isDigitDrop(want, got int) bool {
	w := fmt.Sprintf("%d", want)
	g := fmt.Sprintf("%d", got)
	return len(g) < len(w) && strings.HasSuffix(w, g)
}

func runFig5(o Options) ([]*Table, error) {
	n := o.scaled(2500)
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = 400
	cfg.Days = 3
	world := worldsim.New(cfg)
	opt := worldsim.DefaultRenderOptions()
	rng := rand.New(rand.NewSource(o.Seed + 7))
	extractor := imageproc.New()

	var correct, incorrect, missing []float64
	rendered := 0
sampling:
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for i := range gs.TrueMs {
				if rendered >= n {
					break sampling
				}
				if rng.Float64() > 0.3 {
					continue
				}
				img, truth := worldsim.RenderThumbnail(gs, i, opt, rng)
				rendered++
				if truth.Clock || truth.ShownMs <= 0 {
					continue
				}
				ex := extractor.Extract(img, gs.Game)
				ms := float64(truth.ShownMs)
				switch {
				case !ex.OK:
					missing = append(missing, ms)
				case ex.Value == truth.ShownMs:
					correct = append(correct, ms)
				default:
					incorrect = append(incorrect, ms)
				}
			}
		}
	}

	a := &Table{
		Title:  "Fig. 5a: latency distribution of correct / incorrect / missing extractions",
		Header: []string{"class", "n", "p25", "p50", "p75", "mean"},
		Notes:  []string{"no-bias check: the three classes should have similar latency distributions"},
	}
	for _, row := range []struct {
		name string
		xs   []float64
	}{{"correct", correct}, {"incorrect", incorrect}, {"missing", missing}} {
		if len(row.xs) == 0 {
			a.AddRow(row.name, "0", "-", "-", "-", "-")
			continue
		}
		b := stats.NewBoxplot(row.xs)
		a.AddRow(row.name, itoa(len(row.xs)), f1(b.P25), f1(b.P50), f1(b.P75), f1(stats.Mean(row.xs)))
	}

	// Fig. 5b: of the incorrect measurements, how many does data-analysis
	// discard/correct versus miss? Feed each streamer's observed streams
	// (with injected OCR-style errors) through core and track the wrong
	// points' fate.
	discarded, missed := runFig5b(o)
	b := &Table{
		Title:  "Fig. 5b: incorrect measurements discarded vs missed by data-analysis",
		Header: []string{"fate", "count", "share"},
		Notes:  []string{"paper: anomaly detection misses ≈30% of incorrect values (those within LatGap of neighbours)"},
	}
	tot := discarded + missed
	if tot > 0 {
		b.AddRow("discarded/corrected", itoa(discarded), pct(float64(discarded)/float64(tot)))
		b.AddRow("missed", itoa(missed), pct(float64(missed)/float64(tot)))
	}
	return []*Table{a, b}, nil
}

// runFig5b measures how many observation-injected wrong values survive the
// core data-analysis pipeline.
func runFig5b(o Options) (discarded, missed int) {
	cfg := worldsim.DefaultConfig(o.Seed + 1)
	cfg.Streamers = o.scaled(400)
	world := worldsim.New(cfg)
	obs := worldsim.DefaultObservation()
	params := core.DefaultParams()
	rng := rand.New(rand.NewSource(o.Seed + 13))

	for _, st := range world.Streamers {
		sessions := world.Sessions(st)
		// Group sessions per game.
		byGame := map[string][]*worldsim.GenStream{}
		for _, gs := range sessions {
			byGame[gs.Game.Name] = append(byGame[gs.Game.Name], gs)
		}
		for _, game := range sortedKeys(byGame) {
			group := byGame[game]
			var streams []core.Stream
			type wrongPt struct{ streamIdx, ptIdx int }
			var wrongs []wrongPt
			truthOf := map[wrongPt]float64{}
			for si, gs := range group {
				cs := gs.ToStream(obs, rng)
				// Identify wrong points by comparing against truth times.
				truthAt := map[int64]float64{}
				for i, tm := range gs.Times {
					truthAt[tm.Unix()] = gs.TrueMs[i]
				}
				for pi, pt := range cs.Points {
					if tv, ok := truthAt[pt.T.Unix()]; ok && tv != pt.Ms {
						w := wrongPt{si, pi}
						wrongs = append(wrongs, w)
						truthOf[w] = tv
					}
				}
				streams = append(streams, cs)
			}
			if len(wrongs) == 0 {
				continue
			}
			a := core.Analyze(streams, params)
			if a.Discarded {
				discarded += len(wrongs)
				continue
			}
			// A wrong point is "caught" if its segment was discarded or
			// corrected; "missed" if it survives into kept data unchanged.
			for _, w := range wrongs {
				caught := true
				for i := range a.Segments {
					s := &a.Segments[i]
					if s.StreamIdx != w.streamIdx || w.ptIdx < s.Start || w.ptIdx >= s.End {
						continue
					}
					switch s.Flag {
					case core.FlagDiscarded:
						caught = true
					case core.FlagCorrected:
						caught = true
					default:
						// Kept segment: wrong value survived.
						caught = !segKept(s)
					}
					break
				}
				if caught {
					discarded++
				} else {
					missed++
				}
			}
		}
	}
	return discarded, missed
}

// segKept mirrors core's kept-segment rule for the fate accounting.
func segKept(s *core.Segment) bool {
	switch s.Flag {
	case core.FlagAbsorbed, core.FlagCorrected:
		return true
	case core.FlagNone:
		return s.Stable
	default:
		return false
	}
}
