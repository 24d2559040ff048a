package imaging

import (
	"bytes"
	"testing"
)

// scaleNearestRef is the original per-pixel implementation, kept verbatim
// as the oracle ScaleNearest must stay bit-identical to.
func scaleNearestRef(g *Gray, factor int) *Gray {
	if factor <= 1 {
		return g.Clone()
	}
	out := New(g.W*factor, g.H*factor)
	for y := 0; y < out.H; y++ {
		sy := y / factor
		for x := 0; x < out.W; x++ {
			out.Pix[y*out.W+x] = g.Pix[sy*g.W+x/factor]
		}
	}
	return out
}

// fillFrom builds a w×h image whose pixels cycle through data (or a
// deterministic ramp when data is empty).
func fillFrom(w, h int, data []byte) *Gray {
	g := &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
	for i := range g.Pix {
		if len(data) > 0 {
			g.Pix[i] = data[i%len(data)]
		} else {
			g.Pix[i] = uint8(i*37 + 11)
		}
	}
	return g
}

func TestScaleNearestMatchesRef(t *testing.T) {
	cases := []struct{ w, h, factor int }{
		{0, 0, 2}, {1, 1, 1}, {1, 1, 2}, {3, 2, 2}, {7, 3, 2}, {8, 1, 2},
		{9, 4, 2}, {16, 5, 2}, {17, 2, 2}, {5, 5, 3}, {4, 4, 4}, {13, 7, 5},
		{160, 48, 2}, {31, 9, 3},
	}
	for _, c := range cases {
		g := fillFrom(c.w, c.h, nil)
		got := g.ScaleNearest(c.factor)
		want := scaleNearestRef(g, c.factor)
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%dx%d x%d: output differs from reference", c.w, c.h, c.factor)
		}
	}
}

// FuzzScaleNearest pins bit-identity against the seed implementation over
// arbitrary sizes, factors and pixel contents.
func FuzzScaleNearest(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(2), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(8), uint8(1), uint8(2), []byte{0xff, 0x00})
	f.Add(uint8(17), uint8(3), uint8(3), []byte("gaming footage latency"))
	f.Add(uint8(0), uint8(5), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, w, h, factor uint8, data []byte) {
		wi, hi := int(w)%64, int(h)%64
		fi := int(factor)%5 + 1
		g := fillFrom(wi, hi, data)
		got := g.ScaleNearest(fi)
		want := scaleNearestRef(g, fi)
		if got.W != want.W || got.H != want.H {
			t.Fatalf("%dx%d x%d: size %dx%d, want %dx%d",
				wi, hi, fi, got.W, got.H, want.W, want.H)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d x%d: pixels differ from reference", wi, hi, fi)
		}
	})
}
