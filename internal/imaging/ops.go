package imaging

import (
	"encoding/binary"
	"math"
	"sync/atomic"
)

// ScaleNearest returns the image up- or down-scaled by an integer factor
// using nearest-neighbour sampling (factor >= 1).
//
// Integer upscaling is pure replication, so each source row is expanded
// once into its first destination row and the remaining factor-1 rows are
// row copies — never recomputed per output pixel. The ubiquitous factor-2
// case (every OCR crop is doubled before thresholding) expands eight
// pixels at a time: one 8-byte load, a SWAR byte-spread, two 8-byte
// stores.
func (g *Gray) ScaleNearest(factor int) *Gray {
	if factor <= 1 {
		return g.Clone()
	}
	out := New(g.W*factor, g.H*factor)
	for sy := 0; sy < g.H; sy++ {
		base := sy * factor * out.W
		dst := out.Pix[base : base+out.W]
		expandRow(dst, g.Pix[sy*g.W:(sy+1)*g.W], factor)
		for r := 1; r < factor; r++ {
			copy(out.Pix[base+r*out.W:base+(r+1)*out.W], dst)
		}
	}
	return out
}

// expandRow writes each src byte factor times into dst
// (len(dst) = factor*len(src), factor >= 2).
func expandRow(dst, src []uint8, factor int) {
	if factor == 2 {
		expandRow2(dst, src)
		return
	}
	for x, p := range src {
		d := dst[x*factor : (x+1)*factor]
		for i := range d {
			d[i] = p
		}
	}
}

// expandRow2 writes each src byte twice into dst (len(dst) = 2*len(src)),
// eight source bytes per iteration.
func expandRow2(dst, src []uint8) {
	x := 0
	for ; x+8 <= len(src); x += 8 {
		w := binary.LittleEndian.Uint64(src[x:])
		binary.LittleEndian.PutUint64(dst[2*x:], spreadBytesDouble(uint32(w)))
		binary.LittleEndian.PutUint64(dst[2*x+8:], spreadBytesDouble(uint32(w>>32)))
	}
	for ; x < len(src); x++ {
		dst[2*x] = src[x]
		dst[2*x+1] = src[x]
	}
}

// spreadBytesDouble duplicates each byte of v in place: bytes b0 b1 b2 b3
// (little-endian) become b0 b0 b1 b1 b2 b2 b3 b3. Standard SWAR
// interleave: space the bytes out with two shift-and-mask rounds, then OR
// the word with itself shifted one byte.
func spreadBytesDouble(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	return x | x<<8
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
// of the given sigma (radius = ceil(3*sigma)).
func (g *Gray) GaussianBlur(sigma float64) *Gray { return g.ScaleNearestBlur(1, sigma) }

// ScaleNearestBlur returns ScaleNearest(factor).GaussianBlur(sigma), byte
// for byte, without the up-scaled image ever existing: the blur reads its
// input through the replication factor. Rows factor·j … factor·j+factor−1
// of the up-scaled image are identical, so the horizontal pass runs once
// per source row (on that row expanded into a scratch line) and the vertical
// pass reads intermediate row y/factor. Every output pixel accumulates the
// same taps in the same order as the blur of the materialised image.
func (g *Gray) ScaleNearestBlur(factor int, sigma float64) *Gray {
	if sigma <= 0 || g.W == 0 || g.H == 0 {
		return g.ScaleNearest(factor)
	}
	if factor < 1 {
		factor = 1
	}
	bk := blurKernelFor(sigma)
	radius, kernel, lut := bk.radius, bk.kernel, bk.lut
	w, h := g.W*factor, g.H*factor // the size blurred, and returned
	sc := getBlurScratch(g.H*w, w)
	defer blurPool.Put(sc)
	// Horizontal pass. The intermediate rows are pure scratch: pooled, and
	// fully overwritten before the vertical pass reads them. Interior
	// columns never clamp, so they run as a straight dot product; only the
	// radius-wide borders pay the clamp branches. The accumulation order is
	// identical to the naive loop, so the output stays bit-identical.
	tmp := sc.tmp
	inLo, inHi := radius, w-radius
	if inHi < inLo {
		inLo, inHi = 0, 0 // image narrower than the kernel: all border
	}
	borderX := func(rowIn []uint8, rowOut []float64, x int) {
		acc := 0.0
		for k := range kernel {
			sx := x + k - radius
			if sx < 0 {
				sx = 0
			}
			if sx >= w {
				sx = w - 1
			}
			acc += lut[k*256+int(rowIn[sx])]
		}
		rowOut[x] = acc
	}
	for y := 0; y < g.H; y++ {
		rowIn := g.Pix[y*g.W : (y+1)*g.W]
		if factor > 1 {
			expandRow(sc.line, rowIn, factor)
			rowIn = sc.line
		}
		rowOut := tmp[y*w : (y+1)*w]
		for x := 0; x < inLo; x++ {
			borderX(rowIn, rowOut, x)
		}
		if radius == 2 {
			// The pipeline default (sigma 0.5): unroll the 5 taps. The sum
			// associates left-to-right like the accumulator loop, so the
			// result is bit-identical.
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
		for x := inHi; x < w; x++ {
			borderX(rowIn, rowOut, x)
		}
	}
	// Vertical pass, kernel-tap outer and column inner: each tap streams a
	// whole intermediate row into a per-row accumulator instead of striding
	// down columns. Per output pixel the taps still accumulate in kernel
	// order (acc = k0*v0, then += k1*v1, ...), so this too is bit-identical
	// to the naive loop (0.0 + a == a exactly for the non-negative taps).
	out := New(w, h)
	clampY := func(sy int) []float64 {
		if sy < 0 {
			sy = 0
		}
		if sy >= h {
			sy = h - 1
		}
		sy /= factor
		return tmp[sy*w : (sy+1)*w]
	}
	if radius == 2 {
		// 5-tap unroll: one pass per output row, taps accumulated in kernel
		// order exactly like the accumulator loop below.
		k0, k1, k2, k3, k4 := kernel[0], kernel[1], kernel[2], kernel[3], kernel[4]
		for y := 0; y < h; y++ {
			r0, r1, r2 := clampY(y-2), clampY(y-1), clampY(y)
			r3, r4 := clampY(y+1), clampY(y+2)
			rowOut := out.Pix[y*w : (y+1)*w]
			for x := range rowOut {
				v := k0 * r0[x]
				v += k1 * r1[x]
				v += k2 * r2[x]
				v += k3 * r3[x]
				v += k4 * r4[x]
				rowOut[x] = uint8(v + 0.5)
			}
		}
		return out
	}
	acc := sc.acc
	for y := 0; y < h; y++ {
		for k, kv := range kernel {
			row := clampY(y + k - radius)
			if k == 0 {
				for x, v := range row {
					acc[x] = kv * v
				}
			} else {
				for x, v := range row {
					acc[x] += kv * v
				}
			}
		}
		rowOut := out.Pix[y*w : (y+1)*w]
		for x, v := range acc {
			rowOut[x] = uint8(v + 0.5)
		}
	}
	return out
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
