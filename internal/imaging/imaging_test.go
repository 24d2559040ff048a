package imaging

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// meanLevel is the mean pixel level, or 0 for an empty image.
func meanLevel(g *Gray) float64 {
	if len(g.Pix) == 0 {
		return 0
	}
	s := 0
	for _, p := range g.Pix {
		s += int(p)
	}
	return float64(s) / float64(len(g.Pix))
}

// otsu is the image's Otsu threshold, the way the engines compute it.
func otsu(g *Gray) uint8 {
	hist := g.Histogram256()
	return OtsuHistogram(&hist, len(g.Pix))
}

func TestNewAndAccess(t *testing.T) {
	g := New(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Pix) != 12 {
		t.Fatalf("bad image: %+v", g)
	}
	g.Set(1, 2, 200)
	if g.At(1, 2) != 200 {
		t.Fatal("Set/At")
	}
	// Out-of-bounds are safe.
	g.Set(-1, 0, 9)
	g.Set(4, 0, 9)
	if g.At(-1, 0) != 0 || g.At(0, 3) != 0 {
		t.Fatal("out-of-bounds reads must be 0")
	}
}

func TestCrop(t *testing.T) {
	g := New(10, 10)
	g.Set(5, 5, 77)
	c := g.Crop(Rect{X0: 4, Y0: 4, X1: 7, Y1: 7})
	if c.W != 3 || c.H != 3 {
		t.Fatalf("crop size %dx%d", c.W, c.H)
	}
	if c.At(1, 1) != 77 {
		t.Fatal("crop content")
	}
	// Clamped crop.
	c = g.Crop(Rect{X0: -5, Y0: -5, X1: 100, Y1: 100})
	if c.W != 10 || c.H != 10 {
		t.Fatal("clamped crop should equal original size")
	}
	empty := g.Crop(Rect{X0: 8, Y0: 8, X1: 2, Y1: 2})
	if empty.W != 0 || empty.H != 0 {
		t.Fatal("inverted rect should give empty crop")
	}
}

func TestFillRectAndMean(t *testing.T) {
	g := New(10, 10)
	g.FillRect(Rect{X0: 0, Y0: 0, X1: 10, Y1: 5}, 100)
	if m := meanLevel(g); m != 50 {
		t.Fatalf("mean = %v, want 50", m)
	}
}

func TestInvert(t *testing.T) {
	g := NewFilled(2, 2, 10)
	g.Invert()
	if g.At(0, 0) != 245 {
		t.Fatal("invert")
	}
}

func TestScaleNearest(t *testing.T) {
	g := New(2, 2)
	g.Set(0, 0, 255)
	s := g.ScaleNearest(3)
	if s.W != 6 || s.H != 6 {
		t.Fatalf("scaled size %dx%d", s.W, s.H)
	}
	if s.At(2, 2) != 255 || s.At(3, 3) != 0 {
		t.Fatal("nearest content")
	}
	// factor <= 1 clones.
	c := g.ScaleNearest(1)
	c.Set(0, 0, 1)
	if g.At(0, 0) != 255 {
		t.Fatal("ScaleNearest(1) must not alias")
	}
}

func TestScaleBilinearPreservesConstant(t *testing.T) {
	g := NewFilled(5, 5, 123)
	s := g.ScaleBilinear(13, 9)
	for _, p := range s.Pix {
		if p != 123 {
			t.Fatalf("bilinear broke constant image: %d", p)
		}
	}
}

func TestGaussianBlurPreservesMass(t *testing.T) {
	g := NewFilled(20, 20, 100)
	b := g.GaussianBlur(1.5)
	if m := meanLevel(b); m < 99 || m > 101 {
		t.Fatalf("blur changed mean: %v", m)
	}
	// Blur smooths an impulse.
	imp := New(11, 11)
	imp.Set(5, 5, 255)
	b = imp.GaussianBlur(1)
	if b.At(5, 5) >= 255 || b.At(5, 5) == 0 {
		t.Fatal("impulse should spread")
	}
	if b.At(4, 5) == 0 || b.At(5, 4) == 0 {
		t.Fatal("neighbours should receive mass")
	}
	// sigma <= 0 clones.
	c := imp.GaussianBlur(0)
	if c.At(5, 5) != 255 {
		t.Fatal("zero sigma should clone")
	}
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	g := New(20, 20)
	g.FillRect(Rect{X0: 0, Y0: 0, X1: 20, Y1: 10}, 40)
	g.FillRect(Rect{X0: 0, Y0: 10, X1: 20, Y1: 20}, 200)
	thr := otsu(g)
	if thr <= 40 || thr > 200 {
		t.Fatalf("Otsu threshold %d should separate 40 from 200", thr)
	}
	bin := g.Threshold(thr)
	if bin.At(0, 0) != 0 || bin.At(0, 19) != 255 {
		t.Fatal("binarization wrong")
	}
	// Degenerate single-level image returns something sane.
	if thr := otsu(NewFilled(5, 5, 9)); thr < 1 {
		t.Fatalf("flat-image threshold %d, want >= 1", thr)
	}
}

func TestOtsuBinarizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New(8, 8)
		for i := range g.Pix {
			g.Pix[i] = uint8(r.Intn(256))
		}
		bin := g.Threshold(otsu(g))
		for _, p := range bin.Pix {
			if p != 0 && p != 255 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(20, 10)
	g.FillRect(Rect{X0: 1, Y0: 1, X1: 4, Y1: 8}, 255)   // left blob
	g.FillRect(Rect{X0: 10, Y0: 2, X1: 14, Y1: 6}, 255) // right blob
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if comps[0].Box.X0 != 1 || comps[1].Box.X0 != 10 {
		t.Fatalf("order wrong: %+v", comps)
	}
	if comps[0].Area != 3*7 || comps[1].Area != 4*4 {
		t.Fatalf("areas wrong: %+v", comps)
	}
	if len(New(0, 0).ConnectedComponents()) != 0 {
		t.Fatal("empty image has no components")
	}
}

func TestConnectedComponentsDiagonalNotJoined(t *testing.T) {
	g := New(4, 4)
	g.Set(0, 0, 255)
	g.Set(1, 1, 255)
	if n := len(g.ConnectedComponents()); n != 2 {
		t.Fatalf("4-connectivity: diagonal pixels = %d components, want 2", n)
	}
}

func TestSegmentColumns(t *testing.T) {
	g := New(20, 5)
	g.FillRect(Rect{X0: 2, Y0: 0, X1: 5, Y1: 5}, 255)
	g.FillRect(Rect{X0: 8, Y0: 0, X1: 11, Y1: 5}, 255)
	segs := g.SegmentColumns(2)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (%v)", len(segs), segs)
	}
	if segs[0].X0 != 2 || segs[1].X0 != 8 {
		t.Fatalf("segment starts: %v", segs)
	}
	// A gap smaller than minGap does not split.
	segs = g.SegmentColumns(5)
	if len(segs) != 1 {
		t.Fatalf("minGap=5 should merge, got %d", len(segs))
	}
}

func TestTightBox(t *testing.T) {
	g := New(10, 10)
	if !g.TightBox().Empty() {
		t.Fatal("empty image tight box")
	}
	g.Set(3, 4, 255)
	g.Set(7, 8, 255)
	box := g.TightBox()
	if box.X0 != 3 || box.Y0 != 4 || box.X1 != 8 || box.Y1 != 9 {
		t.Fatalf("tight box = %+v", box)
	}
}

func TestNoise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := NewFilled(50, 50, 128)
	n := g.AddNoise(20, r.Float64)
	diff := 0
	for i := range n.Pix {
		if n.Pix[i] != g.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("noise changed nothing")
	}
	sp := g.SaltPepper(0.5, r.Float64)
	extremes := 0
	for _, p := range sp.Pix {
		if p == 0 || p == 255 {
			extremes++
		}
	}
	if extremes < 500 {
		t.Fatalf("salt-pepper extremes = %d, want many", extremes)
	}
}
