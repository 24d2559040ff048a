package imaging

import (
	"math"
	"sync/atomic"
)

// ScaleNearest returns the image up-scaled by an integer factor with
// nearest-neighbour sampling: output pixel (x, y) is source pixel
// (x/factor, y/factor). A factor below 2 returns a copy.
func (g *Gray) ScaleNearest(factor int) *Gray {
	if factor <= 1 {
		return g.Clone()
	}
	out := New(g.W*factor, g.H*factor)
	for y := 0; y < out.H; y++ {
		src := g.Pix[y/factor*g.W:]
		row := out.Pix[y*out.W : (y+1)*out.W]
		for x := range row {
			row[x] = src[x/factor]
		}
	}
	return out
}

// ScaleBilinear returns the image resampled to (w, h) with bilinear
// interpolation. Every product is rounded by an explicit conversion before
// it is summed, so the result is the same bytes on an architecture whose
// compiler would otherwise fuse a multiply into an add: internal/ocr
// tabulates this expression (buildCellTable) and is tested against it.
func (g *Gray) ScaleBilinear(w, h int) *Gray {
	out := New(w, h)
	if g.W == 0 || g.H == 0 || w == 0 || h == 0 {
		return out
	}
	xRatio := float64(g.W-1) / float64(max(w-1, 1))
	yRatio := float64(g.H-1) / float64(max(h-1, 1))
	for y := 0; y < h; y++ {
		fy := float64(float64(y) * yRatio)
		y0 := int(fy)
		dy := fy - float64(y0)
		y1 := min(y0+1, g.H-1)
		for x := 0; x < w; x++ {
			fx := float64(float64(x) * xRatio)
			x0 := int(fx)
			dx := fx - float64(x0)
			x1 := min(x0+1, g.W-1)
			v := float64(float64(g.Pix[y0*g.W+x0])*(1-dx)*(1-dy)) +
				float64(float64(g.Pix[y0*g.W+x1])*dx*(1-dy)) +
				float64(float64(g.Pix[y1*g.W+x0])*(1-dx)*dy) +
				float64(float64(g.Pix[y1*g.W+x1])*dx*dy)
			out.Pix[y*w+x] = uint8(v + 0.5)
		}
	}
	return out
}

// GaussianBlur returns the image convolved with a separable Gaussian kernel
// of the given sigma (radius = ceil(3*sigma)), edges clamped. A sigma ≤ 0
// returns a copy.
//
// Each pass sums its taps in kernel order. The horizontal pass adds table
// entries (kernel[k]·p, precomputed exactly); the vertical pass rounds every
// product by an explicit conversion before it is added, as in
// ScaleBilinear: where Go fuses a multiply into an add (arm64, not amd64)
// it may fuse scale2Blur5's shared products otherwise than these, and the
// bytes would follow the architecture.
func (g *Gray) GaussianBlur(sigma float64) *Gray {
	if sigma <= 0 || g.W == 0 || g.H == 0 {
		return g.Clone()
	}
	bk := blurKernelFor(sigma)
	w, h, radius := g.W, g.H, bk.radius
	sc := getBlurScratch(w * h)
	defer blurPool.Put(sc)
	tmp := sc.tmp
	for y := 0; y < h; y++ {
		row := g.Pix[y*w : (y+1)*w]
		for x := range row {
			acc := 0.0
			for k := range bk.kernel {
				sx := min(max(x+k-radius, 0), w-1)
				acc += bk.lut[k*256+int(row[sx])]
			}
			tmp[y*w+x] = acc
		}
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			acc := 0.0
			for k, kv := range bk.kernel {
				sy := min(max(y+k-radius, 0), h-1)
				acc += float64(kv * tmp[sy*w+x])
			}
			out.Pix[y*w+x] = uint8(acc + 0.5)
		}
	}
	return out
}

// ScaleNearestBlur returns ScaleNearest(factor).GaussianBlur(sigma), byte
// for byte. The extractor's setting, factor 2 with a five-tap kernel, never
// builds the up-scaled image (scale2Blur5); any other blurs a pooled
// up-scaled image.
func (g *Gray) ScaleNearestBlur(factor int, sigma float64) *Gray {
	if sigma <= 0 || g.W == 0 || g.H == 0 {
		return g.ScaleNearest(factor)
	}
	if bk := blurKernelFor(sigma); factor == 2 && bk.radius == 2 {
		return g.scale2Blur5(bk)
	}
	up := g.ScaleNearest(factor)
	defer Recycle(up)
	return up.GaussianBlur(sigma)
}

// scale2Blur5 is ScaleNearestBlur(2, sigma) for a five-tap kernel. Taps
// mirror bit for bit (kernel[i] depends on (i−radius)² alone), so the
// tables l3 = l1 and l4 = l0. Output columns 2i and 2i+1 read source pixels
// a, b, c = i−1, i, i+1 (clamped), and rows 2j and 2j+1 read intermediate
// rows j−1, j and j+1 (clamped): pairTaps5 and pairRows5 give the two
// sums. Rolled along the row, each source pixel costs three table loads,
// not the expanded row's ten per pair, and two output pixels cost three
// loads and six products, not ten and ten.
func (g *Gray) scale2Blur5(bk *blurKernel) *Gray {
	w, last := 2*g.W, g.W-1
	sc := getBlurScratch(g.H * w)
	defer blurPool.Put(sc)
	tmp := sc.tmp
	l0, l1, l2 := bk.lut[0:256], bk.lut[256:512], bk.lut[512:768]
	for y := 0; y < g.H; y++ {
		row := g.Pix[y*g.W : (y+1)*g.W]
		out := tmp[y*w : (y+1)*w]
		p := row[0]
		a0, a1 := l0[p], l1[p]
		b0, b1, b2 := a0, a1, l2[p]
		for i := range row {
			q := row[min(i+1, last)]
			c0, c1, c2 := l0[q], l1[q], l2[q]
			pair := out[2*i : 2*i+2]
			pair[0], pair[1] = pairTaps5(a0, a1, b1, b2, c0, c1)
			a0, a1 = b0, b1
			b0, b1, b2 = c0, c1, c2
		}
	}
	out := New(w, 2*g.H)
	k0, k1, k2 := bk.kernel[0], bk.kernel[1], bk.kernel[2]
	for j := 0; j < g.H; j++ {
		ra := tmp[max(j-1, 0)*w:][:w]
		rb := tmp[j*w:][:w]
		rc := tmp[min(j+1, g.H-1)*w:][:w]
		o0 := out.Pix[2*j*w:][:w]
		o1 := out.Pix[(2*j+1)*w:][:w]
		for x := range o0 {
			v0, v1 := pairRows5(k0, k1, k2, ra[x], rb[x], rc[x])
			o0[x] = uint8(v0 + 0.5)
			o1[x] = uint8(v1 + 0.5)
		}
	}
	return out
}

// pairTaps5 returns the horizontal sums of output columns 2i and 2i+1 from
// the table entries of source pixels a, b, c (xk = lk[x]): the general
// loop's l0[a] + l1[a] + l2[b] + l3[b] + l4[c] and
// l0[a] + l1[b] + l2[b] + l3[c] + l4[c], term for term in its order.
func pairTaps5(a0, a1, b1, b2, c0, c1 float64) (float64, float64) {
	return a0 + a1 + b2 + b1 + c0, a0 + b1 + b2 + c1 + c0
}

// pairRows5 returns the vertical sums of output rows 2j and 2j+1 from
// intermediate values a, b, c of rows j−1, j, j+1: the general loop's
// k0·r0 + k1·r1 + k2·r2 + k3·r3 + k4·r4 over rows (a, a, b, b, c) and
// (a, b, b, c, c), every product rounded, term for term in its order.
func pairRows5(k0, k1, k2, a, b, c float64) (float64, float64) {
	p0a, p1a := float64(k0*a), float64(k1*a)
	p2b, p1b := float64(k2*b), float64(k1*b)
	p1c, p0c := float64(k1*c), float64(k0*c)
	return p0a + p1a + p2b + p1b + p0c, p0a + p1b + p2b + p1c + p0c
}

// blurKernel is what a Gaussian blur needs that depends only on sigma: the
// normalised taps and the per-tap product tables, lut[k*256+p] =
// kernel[k] * float64(p). The products are precomputed exactly, so
// accumulating table entries in tap order gives the bit-identical sum while
// replacing a convert+multiply per sample with one indexed load.
type blurKernel struct {
	sigma  float64
	radius int
	kernel []float64
	lut    []float64
}

// lastBlurKernel memoises the kernel of the sigma last asked for: a process
// blurs with one sigma (the extractor's), so it is built once; a caller
// alternating between two merely rebuilds it.
var lastBlurKernel atomic.Pointer[blurKernel]

func blurKernelFor(sigma float64) *blurKernel {
	if bk := lastBlurKernel.Load(); bk != nil && bk.sigma == sigma {
		return bk
	}
	radius := int(math.Ceil(3 * sigma))
	bk := &blurKernel{
		sigma:  sigma,
		radius: radius,
		kernel: make([]float64, 2*radius+1),
		lut:    make([]float64, (2*radius+1)*256),
	}
	sum := 0.0
	for i := range bk.kernel {
		d := float64(i - radius)
		bk.kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += bk.kernel[i]
	}
	for i := range bk.kernel {
		bk.kernel[i] /= sum
	}
	for k, kv := range bk.kernel {
		tab := bk.lut[k*256 : k*256+256]
		for p := range tab {
			tab[p] = kv * float64(p)
		}
	}
	lastBlurKernel.Store(bk)
	return bk
}

// Threshold returns a binary image: pixels >= t become 255, others 0.
func (g *Gray) Threshold(t uint8) *Gray {
	out := New(g.W, g.H)
	for i, p := range g.Pix {
		if p >= t {
			out.Pix[i] = 255
		}
	}
	return out
}

// ThresholdBelow returns a binary image with the inverted comparison:
// pixels < t become 255, others 0. Binarizing a dark-foreground image this
// way is exactly Invert() followed by Threshold(255-t+1), without the two
// extra full-image passes.
func (g *Gray) ThresholdBelow(t uint8) *Gray {
	out := New(g.W, g.H)
	for i, p := range g.Pix {
		if p < t {
			out.Pix[i] = 255
		}
	}
	return out
}

// OtsuHistogram computes the Otsu threshold — the level that maximizes
// between-class variance of the intensity histogram [Otsu 1979], as cited by
// the paper's pre-processing step (App. E) — from an intensity histogram
// with the given pixel total. Callers that already hold the histogram (for polarity detection, or for a synthetically scaled image
// whose histogram is a known multiple) avoid re-scanning pixels. The
// returned threshold is always >= 1.
func OtsuHistogram(hist *[256]int, total int) uint8 {
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
		if hist[t] == 0 {
			// Nothing moves: between would repeat the last level's value,
			// which cannot exceed maxVar.
			continue
		}
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

// AddNoise adds uniform ±amp noise using the caller's random source (a
// func returning values in [0,1)), clamping to [0,255].
func (g *Gray) AddNoise(amp int, rnd func() float64) *Gray {
	out := g.Clone()
	for i := range out.Pix {
		d := int(rnd()*float64(2*amp+1)) - amp
		v := int(out.Pix[i]) + d
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out.Pix[i] = uint8(v)
	}
	return out
}

// SaltPepper flips a fraction p of the pixels to either 0 or 255.
func (g *Gray) SaltPepper(p float64, rnd func() float64) *Gray {
	out := g.Clone()
	for i := range out.Pix {
		if rnd() < p {
			if rnd() < 0.5 {
				out.Pix[i] = 0
			} else {
				out.Pix[i] = 255
			}
		}
	}
	return out
}
