package ocr

import (
	"testing"

	"tero/internal/imaging"
)

// BenchmarkRecognize measures each engine end-to-end on a typical latency
// crop ("173 ms" at 2× render scale — the size the extractor's pre-processed
// path feeds the engines), scalar reference vs packed default.
func BenchmarkRecognize(b *testing.B) {
	packed := Engines()
	scalar := scalarEngines()
	img := render("173 ms", 20, 230, 2)
	for i := range packed {
		b.Run(packed[i].Name()+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				_ = scalar[i].Recognize(img)
			}
		})
		b.Run(packed[i].Name()+"/packed", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				_ = packed[i].Recognize(img)
			}
		})
	}
}

// BenchmarkMatchCell isolates the template-matching inner loop: Hamming
// distance of one normalized cell against the full template table.
func BenchmarkMatchCell(b *testing.B) {
	img := render("8", 20, 230, 2)
	bin := img.Threshold(140)
	cellImg := normalizeCell(bin)
	pb := img.PackGE(140)
	box, _ := pb.TightBoxCountIn(imaging.Rect{X1: pb.W, Y1: pb.H})
	cell := normalizeCellPacked(pb, box)
	b.Run("scalar", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			_, _ = matchCell(cellImg, 0)
		}
	})
	b.Run("packed", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			_, _ = matchCellPacked(cell, 0)
		}
	})
}
