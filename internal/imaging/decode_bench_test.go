package imaging_test

import (
	"bytes"
	"testing"

	"tero/internal/imaging"
	"tero/internal/worldsim"
)

// BenchmarkDecodeThumbnail decodes one rendered 320×180 thumbnail: the whole
// image, as DecodePGM does (and the benchmark's imaging.decode_ns_per_thumb
// probe times), against only the rows of its game's latency display, as the
// extraction path does. Both validate the whole object.
func BenchmarkDecodeThumbnail(b *testing.B) {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	gs := world.Sessions(world.Streamers[0])[0]
	img, _ := worldsim.RenderDeterministic(gs, 0, worldsim.DefaultRenderOptions())
	var buf bytes.Buffer
	if err := img.EncodePGM(&buf); err != nil {
		b.Fatal(err)
	}
	data, rect := buf.Bytes(), gs.Game.UI.CropRect(4)
	b.Run("whole", func(b *testing.B) {
		r := bytes.NewReader(data)
		for i := 0; i < b.N; i++ {
			r.Reset(data)
			whole, err := imaging.DecodePGM(r)
			if err != nil {
				b.Fatal(err)
			}
			crop := whole.Crop(rect)
			imaging.Recycle(whole)
			imaging.Recycle(crop)
		}
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			crop, err := imaging.DecodePGMRect(data, rect)
			if err != nil {
				b.Fatal(err)
			}
			imaging.Recycle(crop)
		}
	})
}
