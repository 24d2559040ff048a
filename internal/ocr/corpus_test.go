package ocr_test

import (
	"reflect"
	"testing"

	"tero/internal/imageproc"
	"tero/internal/imaging"
	"tero/internal/obs"
	"tero/internal/ocr"
	"tero/internal/worldsim"
)

// scalarExtractor is the production extractor with its engines swapped for
// the byte-per-pixel oracle of scalar_test.go.
func scalarExtractor() *imageproc.Extractor {
	e := imageproc.New()
	e.Engines = ocr.ScalarEngines()
	return e
}

// TestPackedMatchesScalarOnCorpus holds the whole extraction to the oracle:
// over a seeded worldsim corpus of rendered thumbnails (with the default
// corruption mix — occlusion, noise, clock overlays), the packed-kernel
// extractor and the scalar reference extractor produce identical
// Extractions. Both the pre-processed path and the raw reprocessing
// fallback of Extract run here, since the corpus includes thumbnails that
// force step-4 reprocessing.
func TestPackedMatchesScalarOnCorpus(t *testing.T) {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	opt := worldsim.DefaultRenderOptions()
	packed := imageproc.New()
	scalar := scalarExtractor()

	thumbs, extracted := 0, 0
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for idx := 0; idx < 3; idx++ {
				img, _ := worldsim.RenderDeterministic(gs, idx, opt)
				pex := packed.Extract(img, gs.Game)
				sex := scalar.Extract(img, gs.Game)
				if !reflect.DeepEqual(pex, sex) {
					t.Fatalf("streamer %s session %s idx %d: packed %+v != scalar %+v",
						st.ID, gs.Start, idx, pex, sex)
				}
				if pex.OK {
					extracted++
				}
				thumbs++
				imaging.Recycle(img)
			}
		}
		if thumbs > 600 {
			break
		}
	}
	if thumbs < 100 || extracted == 0 {
		t.Fatalf("corpus too small to be meaningful: %d thumbs, %d extracted", thumbs, extracted)
	}
	t.Logf("corpus: %d thumbs, %d extracted, all bit-identical", thumbs, extracted)
}

// TestEngineResultsMatchOnCorpusCrops compares the raw engine Results —
// including per-character match distances and boxes — on the actual UI
// crops the extractor feeds the engines, packed vs scalar.
func TestEngineResultsMatchOnCorpusCrops(t *testing.T) {
	world := worldsim.New(worldsim.DefaultConfig(99))
	opt := worldsim.DefaultRenderOptions()
	packed := imageproc.New()
	scalar := scalarExtractor()

	checked := 0
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			img, _ := worldsim.RenderDeterministic(gs, 0, opt)
			crop := img.Crop(gs.Game.UI.CropRect(packed.Pad))
			for i := range packed.Engines {
				pres := packed.Engines[i].Recognize(crop)
				sres := scalar.Engines[i].Recognize(crop)
				if !reflect.DeepEqual(pres, sres) {
					t.Fatalf("%s on %s crop: packed %+v != scalar %+v",
						packed.Engines[i].Name(), gs.Game.Slug, pres, sres)
				}
			}
			checked++
			imaging.Recycle(crop)
			imaging.Recycle(img)
			if checked >= 150 {
				return
			}
		}
	}
}

// TestBitmapCountOnCorpus pins ocr_bitmaps_total over a fixed seeded
// corpus: the extractor's pages (one per vote: the pre-processed crop, and
// the raw crop when the vote is reprocessed; ocr_engine_reads_total counts
// them per engine) pack these many bitmaps and reuse the rest, under 1.3
// packed per page, and a second extractor over the same corpus counts the
// same.
func TestBitmapCountOnCorpus(t *testing.T) {
	value := func(name string, kv ...string) int64 { return obs.C(obs.Lbl(name, kv...)).Value() }
	count := func() (pages, packed, reused int64) {
		p0, k0, r0 := value("ocr_engine_reads_total", "engine", "tessera"),
			value("ocr_bitmaps_total", "result", "packed"), value("ocr_bitmaps_total", "result", "reused")
		world := worldsim.New(worldsim.DefaultConfig(1234))
		opt := worldsim.DefaultRenderOptions()
		x := imageproc.New()
		thumbs := 0
		for _, st := range world.Streamers {
			for _, gs := range world.Sessions(st) {
				for idx := 0; idx < 3 && thumbs < 600; idx++ {
					img, _ := worldsim.RenderDeterministic(gs, idx, opt)
					x.Extract(img, gs.Game)
					imaging.Recycle(img)
					thumbs++
				}
			}
		}
		return value("ocr_engine_reads_total", "engine", "tessera") - p0,
			value("ocr_bitmaps_total", "result", "packed") - k0,
			value("ocr_bitmaps_total", "result", "reused") - r0
	}
	pages, packed, reused := count()
	t.Logf("%d pages: %d bitmaps packed, %d reused", pages, packed, reused)
	if pages != 644 || packed != 752 || reused != 1180 {
		t.Fatalf("%d pages: %d bitmaps packed, %d reused; want 644, 752 and 1180", pages, packed, reused)
	}
	if packed+reused != 3*pages || 10*packed >= 13*pages {
		t.Fatalf("%d pages: %d bitmaps packed and %d reused, want 3 per page and under 1.3 packed", pages, packed, reused)
	}
	if p, k, r := count(); p != pages || k != packed || r != reused {
		t.Fatalf("second pass: %d pages, %d packed, %d reused; first pass: %d, %d, %d", p, k, r, pages, packed, reused)
	}
}
