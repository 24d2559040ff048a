package ocr

import (
	"math/rand"
	"reflect"
	"testing"

	"tero/internal/imaging"
	"tero/internal/worldsim"
)

// BenchmarkRecognize measures each engine end-to-end on a typical latency
// crop ("173 ms" at 2× render scale — the size the extractor's pre-processed
// path feeds the engines): the scalar reference, and the packed engine with
// its glyph memo cold (the slots the crop fills are emptied before every
// call, so every box misses), warm (every box hits) and facing all-new boxes
// (a pool of crops whose boxes are all distinct, each gaining six foreground
// pixels inside, and the memo emptied when the pool starts over), the cost
// on input whose glyphs never repeat.
func BenchmarkRecognize(b *testing.B) {
	scalar := scalarEngines()
	img := render("173 ms", 20, 230, 2)
	pool := distinctGlyphCrops(b, img, 256)
	for i, e := range Engines() {
		b.Run(e.Name()+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				_ = scalar[i].Recognize(img)
			}
		})
		b.Run(e.Name()+"/cold", func(b *testing.B) {
			e := Engines()[i]
			e.Recognize(img)
			memo := memoOf(e)
			used := memo.usedSlots()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				memo.forget(used)
				_ = e.Recognize(img)
			}
		})
		b.Run(e.Name()+"/warm", func(b *testing.B) {
			e := Engines()[i]
			e.Recognize(img)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				_ = e.Recognize(img)
			}
		})
		b.Run(e.Name()+"/allmiss", func(b *testing.B) {
			e := Engines()[i]
			before := memoCounterValues(e.Name())[memoHit]
			for _, crop := range pool {
				e.Recognize(crop)
			}
			if hits := memoCounterValues(e.Name())[memoHit] - before; hits != 0 {
				b.Fatalf("%d of the pool's glyph boxes repeat", hits)
			}
			memo := memoOf(e)
			all := make([]int, memoSlots)
			for j := range all {
				all[j] = j
			}
			memo.forget(all)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if n%len(pool) == 0 && n > 0 {
					memo.forget(all)
				}
				_ = e.Recognize(pool[n%len(pool)])
			}
		})
	}
}

// BenchmarkRecognizeAll reads the three engines over pre-processed corpus
// crops two ways: through one page per crop, as the extractor does, and as
// three standalone Recognize calls. One iteration is one crop. The engines'
// memos are warm in both, so the difference is what the page shares: the
// histogram, and the bitmaps, strips and glyph boxes the engines' thresholds
// agree on. It fails if the two ways read any crop differently.
func BenchmarkRecognizeAll(b *testing.B) {
	crops := corpusCrops(b, 64)
	shared, alone := Engines(), Engines()
	for i, crop := range crops {
		pg := NewPage(crop)
		for j, e := range shared {
			if got, want := pg.Read(e), alone[j].Recognize(crop); !reflect.DeepEqual(got, want) {
				b.Fatalf("crop %d: %s read off a page %+v, alone %+v", i, e.Name(), got, want)
			}
		}
		pg.Release()
	}
	b.Run("page", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			pg := NewPage(crops[n%len(crops)])
			for _, e := range shared {
				pg.Read(e)
			}
			pg.Release()
		}
	})
	b.Run("alone", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for _, e := range alone {
				e.Recognize(crops[n%len(crops)])
			}
		}
	})
}

// distinctGlyphCrops returns n copies of img with six background pixels
// inside each glyph box's border set to the foreground: the boxes keep
// their place and size, and no box's bits are another's.
func distinctGlyphCrops(tb testing.TB, img *imaging.Gray, n int) []*imaging.Gray {
	r := rand.New(rand.NewSource(49))
	thr := NewTessera().Thr
	bin := img.PackGE(thr)
	boxes := glyphBoxes(bin, 1)
	imaging.RecycleBitmap(bin)
	fg := img.Pix[0]
	for _, p := range img.Pix {
		fg = max(fg, p)
	}
	seen := map[[3]uint64]bool{}
	out := make([]*imaging.Gray, n)
	for i := range out {
		c := img.Crop(imaging.Rect{X1: img.W, Y1: img.H})
		bin := c.PackGE(thr)
		for _, box := range boxes {
			if box.Width() < 3 || box.Height() < 3 || box.Width()*box.Height() > memoRowBits {
				tb.Fatalf("glyph box %v has no inside or does not fit the memo", box)
			}
			for set := 0; set < 6 || seen[packRows(bin, box, box.Width())]; {
				x, y := box.X0+1+r.Intn(box.Width()-2), box.Y0+1+r.Intn(box.Height()-2)
				if !bin.Get(x, y) {
					c.Set(x, y, fg)
					bin.Set(x, y, true)
					set++
				}
			}
			seen[packRows(bin, box, box.Width())] = true
		}
		imaging.RecycleBitmap(bin)
		out[i] = c
	}
	return out
}

// BenchmarkMatchCell isolates the template-matching inner loop: Hamming
// distance of one normalized cell against the full template table.
func BenchmarkMatchCell(b *testing.B) {
	img := render("8", 20, 230, 2)
	bin := img.Threshold(140)
	cellImg := normalizeCell(bin)
	pb := img.PackGE(140)
	box, _ := pb.TightBoxCountIn(imaging.Rect{X1: pb.W, Y1: pb.H})
	cell := normalizeCellPacked(pb, box, 0)
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
			boxes = glyphBoxes(bin, 3)
			break corpus
		}
	}
	if len(boxes) < 3 {
		b.Fatalf("the corpus crop has %d glyph boxes", len(boxes))
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cellSink = normalizeCellPacked(bin, boxes[i%len(boxes)], 0)
		}
	})
	b.Run("float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cellSink = normalizeCellFloat(bin, boxes[i%len(boxes)])
		}
	})
}
