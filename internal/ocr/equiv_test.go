package ocr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tero/internal/imaging"
)

// TestPackedMatchesScalar pins the packed engines at engine level: for
// every engine, the production path and the byte-per-pixel reference of
// scalar_test.go produce identical Results — same Text, and same per-character rune,
// Hamming distance and box — across text content, render scale, polarity,
// contrast and noise.
func TestPackedMatchesScalar(t *testing.T) {
	packed := Engines()
	scalar := scalarEngines()
	r := rand.New(rand.NewSource(7))

	type scenario struct {
		name string
		img  *imaging.Gray
	}
	var cases []scenario
	texts := []string{"42", "128 ms", "7", "345", "ping: 99", "0", "ms", "", "999 MS"}
	for _, text := range texts {
		for _, scale := range []int{1, 2} {
			// Light-on-dark and dark-on-light (exercises polarity detection),
			// plus a low-contrast variant.
			cases = append(cases,
				scenario{fmt.Sprintf("%q s%d light", text, scale), render(text, 20, 230, scale)},
				scenario{fmt.Sprintf("%q s%d dark", text, scale), render(text, 230, 20, scale)},
				scenario{fmt.Sprintf("%q s%d lowc", text, scale), render(text, 60, 100, scale)},
			)
		}
	}
	// Noisy variants: uniform noise and salt-and-pepper on both polarities.
	for i := 0; i < 12; i++ {
		base := render("173 ms", uint8(10+20*(i%3)), uint8(160+r.Intn(90)), 1+i%2)
		if i%2 == 1 {
			base.Invert()
		}
		var img *imaging.Gray
		if i%3 == 0 {
			img = base.SaltPepper(0.02, r.Float64)
		} else {
			img = base.AddNoise(30+10*(i%4), r.Float64)
		}
		imaging.Recycle(base)
		cases = append(cases, scenario{fmt.Sprintf("noise%d", i), img})
	}
	// Pure random images (no text at all): both paths must reject alike.
	for i := 0; i < 6; i++ {
		img := imaging.New(40+r.Intn(120), 10+r.Intn(20))
		for j := range img.Pix {
			img.Pix[j] = uint8(r.Intn(256))
		}
		cases = append(cases, scenario{fmt.Sprintf("rand%d", i), img})
	}

	for _, c := range cases {
		for i := range packed {
			pres := packed[i].Recognize(c.img)
			sres := scalar[i].Recognize(c.img)
			if !reflect.DeepEqual(pres, sres) {
				t.Errorf("%s %s: packed != scalar\npacked %+v\nscalar %+v",
					packed[i].Name(), c.name, pres, sres)
			}
		}
	}
}

// TestComponentStripsAreColumnRuns holds the identity EasyScan's
// segmentation rests on: the connected components of a binary image, each
// widened to a full-height strip and merged where strips overlap or touch,
// are the maximal runs of occupied columns — Bitmap.SegmentColumns(1) — on
// seeded random images of touching and diagonal blobs, single-column
// glyphs and noise, at widths around the 64-bit word boundary, and on empty
// and full images.
func TestComponentStripsAreColumnRuns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	widths := []int{1, 2, 3, 7, 31, 63, 64, 65, 100, 127, 128, 129, 191, 192, 193}
	kinds := []string{"blobs", "diagonals", "single-column glyphs", "noise", "empty", "full"}
	for i := 0; i < 3000; i++ {
		w := widths[i%len(widths)]
		if i%3 == 0 {
			w = 1 + r.Intn(200)
		}
		h := 1 + r.Intn(24)
		kind := (i / len(widths)) % len(kinds)
		g := imaging.New(w, h)
		switch kind {
		case 0: // rectangles that overlap, touch or stand apart
			for k := r.Intn(12); k > 0; k-- {
				x, y := r.Intn(w), r.Intn(h)
				g.FillRect(imaging.Rect{X0: x, Y0: y, X1: x + 1 + r.Intn(6), Y1: y + 1 + r.Intn(6)}, 255)
			}
		case 1: // pixels meeting only at corners: apart, but their columns touch
			for k := r.Intn(6); k > 0; k-- {
				x, y, dy := r.Intn(w), r.Intn(h), 1-2*r.Intn(2)
				for n := r.Intn(8); n >= 0; n-- {
					g.Set(x, y, 255)
					x, y = x+1, y+dy
				}
			}
		case 2: // one-column strokes at gaps of 0, 1 or 2 columns
			for x := r.Intn(3); x < w; x += 1 + r.Intn(3) {
				y0 := r.Intn(h)
				g.FillRect(imaging.Rect{X0: x, Y0: y0, X1: x + 1, Y1: y0 + 1 + r.Intn(h)}, 255)
			}
		case 3:
			for j := range g.Pix {
				if r.Intn(4) == 0 {
					g.Pix[j] = 255
				}
			}
		case 5:
			g.FillRect(imaging.Rect{X1: w, Y1: h}, 255)
		}
		strips := mergeOverlapping(componentColumns(g.ConnectedComponents(), h, nil))
		bin := g.PackGE(1)
		runs := bin.SegmentColumns(1, nil)
		if !slices.Equal(strips, runs) {
			t.Fatalf("%s %dx%d: component strips %v, column runs %v", kinds[kind], w, h, strips, runs)
		}
		imaging.RecycleBitmap(bin)
	}
}
