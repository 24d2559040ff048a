package ocr

import (
	"testing"

	"tero/internal/imaging"
	"tero/internal/worldsim"
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

var cellSink packedCell

// BenchmarkNormalizeCell normalises the glyph boxes of one corpus crop — a
// rendered thumbnail's latency display, pre-processed and binarised the way
// Tessera sees it — by truth table, against the float loop the table
// replaced (normalize_test.go). One iteration is one box.
func BenchmarkNormalizeCell(b *testing.B) {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	var bin *imaging.Bitmap
	var boxes []imaging.Rect
corpus:
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			img, truth := worldsim.RenderDeterministic(gs, 0, worldsim.DefaultRenderOptions())
			if truth.ShownMs < 100 {
				continue // a three-digit reading
			}
			crop := img.Crop(gs.Game.UI.CropRect(4))
			bin = crop.ScaleNearestBlur(2, 0.5).PackGE(NewTessera().Thr)
			for _, s := range bin.SegmentColumns(1, nil) {
				if box, area := bin.TightBoxCountIn(s); area >= 3 {
					boxes = append(boxes, imaging.Rect{X0: s.X0 + box.X0, Y0: s.Y0 + box.Y0, X1: s.X0 + box.X1, Y1: s.Y0 + box.Y1})
				}
			}
			break corpus
		}
	}
	if len(boxes) < 3 {
		b.Fatalf("the corpus crop has %d glyph boxes", len(boxes))
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cellSink = normalizeCellPacked(bin, boxes[i%len(boxes)])
		}
	})
	b.Run("float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cellSink = normalizeCellFloat(bin, boxes[i%len(boxes)])
		}
	})
}
