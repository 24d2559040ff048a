package imaging

import (
	"math/rand"
	"reflect"
	"testing"
)

// grayEqual reports whether two images match in size and pixels.
func grayEqual(a, b *Gray) bool {
	return a.W == b.W && a.H == b.H && reflect.DeepEqual(a.Pix, b.Pix)
}

// unpack expands a bitmap to a binary Gray (set bits become 255) one Get at
// a time — the comparator for kernels that return a Bitmap.
func unpack(b *Bitmap) *Gray {
	g := New(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) {
				g.Pix[y*b.W+x] = 255
			}
		}
	}
	return g
}

// scalarCountFg is the reference foreground counter the packed popcount
// replaces.
func scalarCountFg(g *Gray) int {
	n := 0
	for _, p := range g.Pix {
		if p != 0 {
			n++
		}
	}
	return n
}

// fuzzSizes exercises the edge-word masking: widths below, at, and just
// past the 64-bit word boundary, plus multi-word rows.
var fuzzSizes = []struct{ w, h int }{
	{1, 1}, {5, 3}, {63, 7}, {64, 4}, {65, 5}, {100, 20},
	{127, 3}, {128, 2}, {129, 9}, {200, 30}, {64, 1}, {1, 64}, {66, 40},
}

// TestBitmapOpsMatchGray fuzzes every packed kernel against its scalar
// reference on random images, including widths not divisible by 64.
func TestBitmapOpsMatchGray(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sizes := fuzzSizes
	for i := 0; i < 20; i++ {
		sizes = append(sizes, struct{ w, h int }{1 + r.Intn(180), 1 + r.Intn(40)})
	}
	for _, sz := range sizes {
		for trial := 0; trial < 4; trial++ {
			g := New(sz.w, sz.h)
			// Mix of dense noise and sparse text-like blobs.
			if trial%2 == 0 {
				for i := range g.Pix {
					g.Pix[i] = uint8(r.Intn(256))
				}
			} else {
				for i := 0; i < 5; i++ {
					x, y := r.Intn(sz.w), r.Intn(sz.h)
					g.FillRect(Rect{X0: x, Y0: y, X1: x + 1 + r.Intn(8), Y1: y + 1 + r.Intn(5)}, 255)
				}
			}
			thr := uint8(1 + r.Intn(255))
			bin := g.Threshold(thr)
			pb := g.PackGE(thr)

			if !grayEqual(unpack(pb), bin) {
				t.Fatalf("%dx%d thr=%d: PackGE != Threshold", sz.w, sz.h, thr)
			}
			if !grayEqual(unpack(g.PackLE(thr-1)), g.ThresholdBelow(thr)) {
				t.Fatalf("%dx%d thr=%d: PackLE != ThresholdBelow", sz.w, sz.h, thr)
			}
			for _, gapMin := range []int{1, 2, 3} {
				if !reflect.DeepEqual(pb.SegmentColumns(gapMin, nil), bin.SegmentColumns(gapMin)) {
					t.Fatalf("%dx%d: SegmentColumns(%d) mismatch", sz.w, sz.h, gapMin)
				}
			}
			if !grayEqual(unpack(pb.Upscale2x()), bin.ScaleNearest(2)) {
				t.Fatalf("%dx%d: Upscale2x mismatch", sz.w, sz.h)
			}
			pc := pb.ConnectedComponents(nil)
			sc := bin.ConnectedComponents()
			if len(pc) != len(sc) || (len(pc) > 0 && !reflect.DeepEqual(pc, sc)) {
				t.Fatalf("%dx%d: ConnectedComponents mismatch:\npacked %+v\nscalar %+v", sz.w, sz.h, pc, sc)
			}
			if box, cnt := pb.TightBoxCountIn(Rect{X1: sz.w, Y1: sz.h}); box != bin.TightBox() || cnt != scalarCountFg(bin) {
				t.Fatalf("%dx%d: whole-image TightBoxCountIn=(%+v,%d) want (%+v,%d)",
					sz.w, sz.h, box, cnt, bin.TightBox(), scalarCountFg(bin))
			}
			// Sub-rect kernels against crop-based references.
			for j := 0; j < 4; j++ {
				x0, y0 := r.Intn(sz.w), r.Intn(sz.h)
				rect := Rect{X0: x0, Y0: y0, X1: x0 + 1 + r.Intn(sz.w), Y1: y0 + 1 + r.Intn(sz.h)}
				sub := bin.Crop(rect)
				if !grayEqual(unpackIn(pb, rect), sub) {
					t.Fatalf("%dx%d %+v: unpacked bits != Crop", sz.w, sz.h, rect)
				}
				if box, cnt := pb.TightBoxCountIn(rect); box != sub.TightBox() || cnt != scalarCountFg(sub) {
					t.Fatalf("%dx%d %+v: TightBoxCountIn=(%+v,%d) want (%+v,%d)",
						sz.w, sz.h, rect, box, cnt, sub.TightBox(), scalarCountFg(sub))
				}
			}
		}
	}
}

// unpackIn expands the sub-rectangle r (clamped) of a bitmap to a binary
// Gray, set bits as 255: what Crop(r) of the thresholded Gray it was packed
// from holds.
func unpackIn(b *Bitmap, r Rect) *Gray {
	r = r.Clamp(b.W, b.H)
	if r.Empty() {
		return New(0, 0)
	}
	g := New(r.Width(), r.Height())
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if b.Get(r.X0+x, r.Y0+y) {
				g.Pix[y*g.W+x] = 255
			}
		}
	}
	return g
}

func TestBitmapGetSetUnpack(t *testing.T) {
	b := NewBitmap(70, 3) // spans a word boundary
	b.Set(0, 0, true)
	b.Set(63, 1, true)
	b.Set(64, 1, true)
	b.Set(69, 2, true)
	if !b.Get(0, 0) || !b.Get(63, 1) || !b.Get(64, 1) || !b.Get(69, 2) {
		t.Fatal("Set/Get")
	}
	b.Set(63, 1, false)
	if b.Get(63, 1) {
		t.Fatal("clear failed")
	}
	// Out-of-bounds are safe.
	b.Set(-1, 0, true)
	b.Set(70, 0, true)
	if b.Get(-1, 0) || b.Get(70, 0) || b.Get(0, 3) {
		t.Fatal("out-of-bounds reads must be false")
	}
	g := unpackIn(b, Rect{X1: b.W, Y1: b.H})
	if g.At(0, 0) != 255 || g.At(64, 1) != 255 || g.At(1, 0) != 0 {
		t.Fatal("unpacked content")
	}
	if n := scalarCountFg(g); n != 3 {
		t.Fatalf("foreground=%d want 3", n)
	}
}

func TestBitmapPaddingStaysZero(t *testing.T) {
	// The kernels that fill whole words — PackLE(255), both packers on an
	// all-foreground row, the bit-doubling upscale — must leave the padding
	// bits of each row's last word clear, or every popcount over-counts.
	g := NewFilled(65, 4, 255)
	for name, b := range map[string]*Bitmap{
		"PackGE":    g.PackGE(1),
		"PackLE":    g.PackLE(255),
		"Upscale2x": g.PackGE(1).Upscale2x(),
	} {
		tail := b.tailMask()
		for y := 0; y < b.H; y++ {
			row := b.Row(y)
			if pad := row[len(row)-1] &^ tail; pad != 0 {
				t.Fatalf("%s row %d: padding bits set: %#x", name, y, pad)
			}
		}
		if _, n := b.TightBoxCountIn(Rect{X1: b.W, Y1: b.H}); n != b.W*b.H {
			t.Fatalf("%s: foreground=%d want %d", name, n, b.W*b.H)
		}
	}
}

func TestBitmapRecycle(t *testing.T) {
	b := NewBitmap(100, 10)
	b.Set(5, 5, true)
	RecycleBitmap(b)
	if b.W != 0 || b.H != 0 || len(b.Words) != 0 {
		t.Fatal("recycled bitmap should be a husk")
	}
	RecycleBitmap(nil) // must not panic
	// A fresh bitmap from the pool is zeroed.
	n := NewBitmap(10, 10)
	if _, fg := n.TightBoxCountIn(Rect{X1: 10, Y1: 10}); fg != 0 {
		t.Fatal("pooled bitmap not zeroed")
	}
}

func TestBitmapEmpty(t *testing.T) {
	b := NewBitmap(0, 0)
	if len(b.ConnectedComponents(nil)) != 0 || len(b.SegmentColumns(1, nil)) != 0 {
		t.Fatal("empty bitmap ops")
	}
	if box, n := b.TightBoxCountIn(Rect{}); !box.Empty() || n != 0 {
		t.Fatal("empty tight box")
	}
}
