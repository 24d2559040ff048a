package ocr_test

import (
	"reflect"
	"testing"

	"tero/internal/imageproc"
	"tero/internal/imaging"
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
