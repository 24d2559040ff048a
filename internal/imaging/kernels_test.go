package imaging

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// gaussianBlurRef is GaussianBlur as it stood before the blur learned to
// read its input through a replication factor — the kernel and the product
// tables rebuilt per call, the horizontal pass run on every row of the
// image it is handed — kept as it was but for one change: every product of
// the vertical pass is rounded by an explicit conversion, which leaves
// amd64's instructions as they were (Go fuses no multiply into an add
// there) and keeps an FMA architecture from fusing it. It is the oracle
// ScaleNearestBlur is held to: composed with scaleNearestRef it is the
// up-scale-then-blur the extractor used to materialise.
func gaussianBlurRef(g *Gray, sigma float64) *Gray {
	if sigma <= 0 || g.W == 0 || g.H == 0 {
		return g.Clone()
	}
	radius := int(math.Ceil(3 * sigma))
	kernel := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	tmp := make([]float64, g.W*g.H)
	lut := make([]float64, len(kernel)*256)
	for k, kv := range kernel {
		tab := lut[k*256 : k*256+256]
		for p := range tab {
			tab[p] = kv * float64(p)
		}
	}
	inLo, inHi := radius, g.W-radius
	if inHi < inLo {
		inLo, inHi = 0, 0
	}
	borderX := func(rowIn []uint8, rowOut []float64, x int) {
		acc := 0.0
		for k := range kernel {
			sx := x + k - radius
			if sx < 0 {
				sx = 0
			}
			if sx >= g.W {
				sx = g.W - 1
			}
			acc += lut[k*256+int(rowIn[sx])]
		}
		rowOut[x] = acc
	}
	for y := 0; y < g.H; y++ {
		rowIn := g.Pix[y*g.W : (y+1)*g.W]
		rowOut := tmp[y*g.W : (y+1)*g.W]
		for x := 0; x < inLo; x++ {
			borderX(rowIn, rowOut, x)
		}
		if radius == 2 {
			l0, l1, l2 := lut[0:256], lut[256:512], lut[512:768]
			l3, l4 := lut[768:1024], lut[1024:1280]
			for x := inLo; x < inHi; x++ {
				win := rowIn[x-2 : x+3]
				rowOut[x] = l0[win[0]] + l1[win[1]] + l2[win[2]] + l3[win[3]] + l4[win[4]]
			}
		} else {
			for x := inLo; x < inHi; x++ {
				acc := 0.0
				win := rowIn[x-radius:]
				for k := range kernel {
					acc += lut[k<<8+int(win[k])]
				}
				rowOut[x] = acc
			}
		}
		for x := inHi; x < g.W; x++ {
			borderX(rowIn, rowOut, x)
		}
	}
	out := New(g.W, g.H)
	clampY := func(sy int) []float64 {
		if sy < 0 {
			sy = 0
		}
		if sy >= g.H {
			sy = g.H - 1
		}
		return tmp[sy*g.W : (sy+1)*g.W]
	}
	if radius == 2 {
		k0, k1, k2, k3, k4 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4]
		for y := 0; y < g.H; y++ {
			r0, r1, r2 := clampY(y-2), clampY(y-1), clampY(y)
			r3, r4 := clampY(y+1), clampY(y+2)
			rowOut := out.Pix[y*g.W : (y+1)*g.W]
			for x := range rowOut {
				v := float64(k0 * r0[x])
				v += float64(k1 * r1[x])
				v += float64(k2 * r2[x])
				v += float64(k3 * r3[x])
				v += float64(k4 * r4[x])
				rowOut[x] = uint8(v + 0.5)
			}
		}
		return out
	}
	acc := make([]float64, g.W)
	for y := 0; y < g.H; y++ {
		for k, kv := range kernel {
			row := clampY(y + k - radius)
			if k == 0 {
				for x, v := range row {
					acc[x] = kv * v
				}
			} else {
				for x, v := range row {
					acc[x] += float64(kv * v)
				}
			}
		}
		rowOut := out.Pix[y*g.W : (y+1)*g.W]
		for x, v := range acc {
			rowOut[x] = uint8(v + 0.5)
		}
	}
	return out
}

func randomGray(r *rand.Rand, w, h int) *Gray {
	g := &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
	// Flat runs with the odd outlier, like a UI crop, or plain noise.
	if r.Intn(2) == 0 {
		r.Read(g.Pix)
		return g
	}
	level := uint8(r.Intn(256))
	for i := range g.Pix {
		if r.Intn(9) == 0 {
			level = uint8(r.Intn(256))
		}
		g.Pix[i] = level
	}
	return g
}

// TestScaleNearestBlurMatchesComposition: for replication factors 1, 2 and 3
// and radii 1, 2, 3 and 5 (sigma 0.5 is the extractor's, radius 2, which the
// pair kernel takes at factor 2; sigmas 0.3, 1.0 and 1.5 are radii 1, 3 and
// 5, which the plain loop serves), on random images from 1×1 up — narrower
// than the kernel, one row high — the replicating blur is byte for byte the
// reference up-scale followed by the reference blur. GaussianBlur is factor
// 1 of it.
func TestScaleNearestBlurMatchesComposition(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		w, h := 1+r.Intn(24), 1+r.Intn(9)
		if i%50 == 0 {
			w, h = 43+r.Intn(50), 15 // the extractor's crops
		}
		g := randomGray(r, w, h)
		for _, factor := range []int{1, 2, 3} {
			for _, sigma := range []float64{0.3, 0.5, 1.0, 1.5} {
				up := scaleNearestRef(g, factor)
				want := gaussianBlurRef(up, sigma)
				got := g.ScaleNearestBlur(factor, sigma)
				if !sameImage(got, want) {
					t.Fatalf("%dx%d ×%d sigma %.1f: replicating blur differs from ScaleNearest → GaussianBlur", w, h, factor, sigma)
				}
				if factor == 1 {
					if plain := g.GaussianBlur(sigma); !sameImage(plain, want) {
						t.Fatalf("%dx%d sigma %.1f: GaussianBlur differs from the reference", w, h, sigma)
					}
				}
			}
		}
	}
	// The degenerate arguments take the documented shortcuts.
	g := randomGray(r, 7, 3)
	for _, tc := range []struct {
		factor int
		sigma  float64
		want   *Gray
	}{
		{2, 0, scaleNearestRef(g, 2)},
		{3, -1, scaleNearestRef(g, 3)},
		{0, 0.5, gaussianBlurRef(g, 0.5)},
		{-4, 0, g},
	} {
		if got := g.ScaleNearestBlur(tc.factor, tc.sigma); !sameImage(got, tc.want) {
			t.Errorf("ScaleNearestBlur(%d, %v) differs from its composition", tc.factor, tc.sigma)
		}
	}
	if e := New(0, 0).ScaleNearestBlur(2, 0.5); e.W != 0 || e.H != 0 {
		t.Errorf("blur of the empty image is %dx%d", e.W, e.H)
	}
}

// TestScale2Blur5SumsInTheGeneralOrder: the pair kernel's sums have the
// bits of the general loop's five-term sums, operands and order alike.
// The composition oracle above compares rounded bytes, and a last-place
// difference from reordering a sum almost never crosses a rounding
// boundary, so the sums are compared here before rounding.
func TestScale2Blur5SumsInTheGeneralOrder(t *testing.T) {
	bk := blurKernelFor(0.5)
	lut, kernel := bk.lut, bk.kernel
	l0, l1, l2 := lut[0:256], lut[256:512], lut[512:768]
	l3, l4 := lut[768:1024], lut[1024:1280]
	vertical := func(r0, r1, r2, r3, r4 float64) float64 {
		v := float64(kernel[0] * r0)
		v += float64(kernel[1] * r1)
		v += float64(kernel[2] * r2)
		v += float64(kernel[3] * r3)
		v += float64(kernel[4] * r4)
		return v
	}
	r := rand.New(rand.NewSource(3))
	px := func() uint8 { return uint8(r.Intn(256)) }
	row := func() float64 { return l0[px()] + l1[px()] + l2[px()] + l3[px()] + l4[px()] }
	for i := 0; i < 20000; i++ {
		a, b, c := px(), px(), px()
		h0, h1 := pairTaps5(l0[a], l1[a], l1[b], l2[b], l0[c], l1[c])
		if want := l0[a] + l1[a] + l2[b] + l3[b] + l4[c]; math.Float64bits(h0) != math.Float64bits(want) {
			t.Fatalf("pixels %d %d %d: column 2i sums to %v, the general loop to %v", a, b, c, h0, want)
		}
		if want := l0[a] + l1[b] + l2[b] + l3[c] + l4[c]; math.Float64bits(h1) != math.Float64bits(want) {
			t.Fatalf("pixels %d %d %d: column 2i+1 sums to %v, the general loop to %v", a, b, c, h1, want)
		}
		ra, rb, rc := row(), row(), row()
		v0, v1 := pairRows5(kernel[0], kernel[1], kernel[2], ra, rb, rc)
		if want := vertical(ra, ra, rb, rb, rc); math.Float64bits(v0) != math.Float64bits(want) {
			t.Fatalf("rows %v %v %v: row 2j sums to %v, the general loop to %v", ra, rb, rc, v0, want)
		}
		if want := vertical(ra, rb, rb, rc, rc); math.Float64bits(v1) != math.Float64bits(want) {
			t.Fatalf("rows %v %v %v: row 2j+1 sums to %v, the general loop to %v", ra, rb, rc, v1, want)
		}
	}
}

// TestBlurKernelMemoFollowsSigma: the kernel is memoised for the sigma last
// used, so alternating sigmas — from several goroutines, under -race — must
// each get their own kernel's answer.
func TestBlurKernelMemoFollowsSigma(t *testing.T) {
	g := randomGray(rand.New(rand.NewSource(5)), 31, 9)
	want := map[float64]*Gray{0.5: gaussianBlurRef(g, 0.5), 0.8: gaussianBlurRef(g, 0.8), 1.0: gaussianBlurRef(g, 1.0)}
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			ok := true
			for i := 0; i < 60; i++ {
				sigma := []float64{0.5, 0.8, 1.0}[(i+w)%3]
				ok = ok && sameImage(g.GaussianBlur(sigma), want[sigma])
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Error("a blur under alternating sigmas differs from the reference")
		}
	}
}

// TestHistogram256MatchesNaive: the four-lane count equals the one-array
// loop at every length around the lane width and the tail, on an image of a
// single level (every increment into one bin of each lane) and on noise.
func TestHistogram256MatchesNaive(t *testing.T) {
	naive := func(pix []uint8) (h [256]int) {
		for _, p := range pix {
			h[p]++
		}
		return h
	}
	r := rand.New(rand.NewSource(11))
	for n := 0; n <= 17; n++ {
		g := randomGray(r, n, 1)
		if got, want := g.Histogram256(), naive(g.Pix); got != want {
			t.Errorf("length %d: histogram differs from the naive count", n)
		}
	}
	for _, g := range []*Gray{NewFilled(182, 30, 20), NewFilled(91, 15, 255), NewFilled(3, 1, 0), randomGray(r, 182, 30), randomGray(r, 320, 180)} {
		if got, want := g.Histogram256(), naive(g.Pix); got != want {
			t.Errorf("%dx%d: histogram differs from the naive count", g.W, g.H)
		}
	}
}

// FuzzDecodePGMRect holds the rows-only decoder to the whole-image one, for
// any bytes and any rectangle — negative, inverted, larger than the image:
// DecodePGMRect fails exactly when DecodePGM fails, and otherwise returns
// DecodePGM(...).Crop(r) byte for byte. The committed corpus
// (testdata/fuzz/FuzzDecodePGMRect) is FuzzDecodePGM's twenty inputs, each
// with a rectangle.
func FuzzDecodePGMRect(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, x0, y0, x1, y1 int) {
		r := Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
		got, err := DecodePGMRect(data, r)
		whole, wholeErr := DecodePGM(bytes.NewReader(data))
		if (err == nil) != (wholeErr == nil) {
			t.Fatalf("DecodePGMRect: %v; DecodePGM: %v", err, wholeErr)
		}
		if err != nil {
			if err != ErrBadPGM || got != nil {
				t.Fatalf("refused with %v, %v; want nil, ErrBadPGM", got, err)
			}
			return
		}
		if want := whole.Crop(r); !sameImage(got, want) {
			t.Fatalf("%v of a %dx%d image: got %dx%d, want %dx%d (or the same size and other bytes)",
				r, whole.W, whole.H, got.W, got.H, want.W, want.H)
		}
	})
}

// otsuHistogramRef is OtsuHistogram as it stood before it skipped the empty
// levels, kept verbatim as the oracle the skipping loop is held to.
func otsuHistogramRef(hist *[256]int, total int) uint8 {
	if total == 0 {
		return 128
	}
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var (
		wB, wF   float64
		sumB     float64
		maxVar   float64
		bestThr  int
		totalF   = float64(total)
		foundAny bool
	)
	for t := 0; t < 256; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF = totalF - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > maxVar {
			maxVar = between
			bestThr = t
			foundAny = true
		}
	}
	if !foundAny {
		return 128
	}
	return uint8(bestThr + 1)
}

// TestOtsuHistogramMatchesRef: skipping the empty levels picks the level the
// full scan picks, on dense, sparse, single-level, two-adjacent-level and
// all-zero histograms (the last with a zero total and with a total nothing
// was counted towards). Four times a histogram has the same threshold: the
// identity PaddleRead's hist[i] *= 4 for its 2× image rests on.
func TestOtsuHistogramMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	kinds := []string{"dense", "sparse", "single-level", "two-adjacent-level", "all-zero"}
	for i := 0; i < 5000; i++ {
		var h [256]int
		total := 0
		// Counts of one and two as well as large ones: a level that holds
		// one pixel is not empty, and must not be skipped.
		top := []int{2, 3, 5000}[r.Intn(3)]
		switch kind := i % len(kinds); kind {
		case 0:
			for l := range h {
				h[l] = r.Intn(top)
			}
		case 1:
			for k := 1 + r.Intn(8); k > 0; k-- {
				h[r.Intn(256)] += 1 + r.Intn(top)
			}
		case 2:
			h[r.Intn(256)] = 1 + r.Intn(top)
		case 3:
			l := r.Intn(255)
			h[l], h[l+1] = 1+r.Intn(top), 1+r.Intn(top)
		case 4:
			total = r.Intn(2) * (1 + r.Intn(100))
		}
		for _, c := range h {
			total += c
		}
		want := otsuHistogramRef(&h, total)
		if got := OtsuHistogram(&h, total); got != want {
			t.Fatalf("%s histogram %d (total %d): threshold %d, the full scan's %d", kinds[i%len(kinds)], i, total, got, want)
		}
		h4 := h
		for l := range h4 {
			h4[l] *= 4
		}
		if got := OtsuHistogram(&h4, 4*total); got != want {
			t.Fatalf("%s histogram %d: ×4 threshold %d, want %d", kinds[i%len(kinds)], i, got, want)
		}
	}
}
