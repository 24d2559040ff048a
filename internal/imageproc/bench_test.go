package imageproc

import (
	"testing"

	"tero/internal/imaging"
	"tero/internal/worldsim"
)

// BenchmarkExtract measures the full four-step extraction on one rendered
// thumbnail (crop → preprocess → 3-engine OCR → vote).
func BenchmarkExtract(b *testing.B) {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	st := world.Streamers[0]
	gs := world.Sessions(st)[0]
	img, _ := worldsim.RenderDeterministic(gs, 0, worldsim.DefaultRenderOptions())
	defer imaging.Recycle(img)
	ex := New()
	b.ReportAllocs()
	got := ex.Extract(img, gs.Game)
	for i := 0; i < b.N; i++ {
		if r := ex.Extract(img, gs.Game); r != got {
			b.Fatalf("unstable extraction: %+v then %+v", got, r)
		}
	}
}
