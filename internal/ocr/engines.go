package ocr

import (
	"sync"

	"tero/internal/imaging"
)

// scratch is what one Recognize call segments into: the column strips and,
// for EasyScan, the components they come from. Neither outlives the call —
// a Result's boxes are copies — and three engines segment one or two images
// per thumbnail.
type scratch struct {
	segs  []imaging.Rect
	comps []imaging.Component
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Tessera is the strict engine: fixed global threshold, column-projection
// segmentation, tight match tolerance. It misses low-contrast text entirely
// (the fixed threshold swallows it) and refuses noisy characters, which
// yields the highest miss rate of the three, like Tesseract in Table 4.
type Tessera struct {
	// Thr is the fixed binarization threshold.
	Thr uint8
	// Tol is the maximum accepted Hamming distance.
	Tol int
}

// NewTessera returns a Tessera engine with default parameters.
func NewTessera() *Tessera { return &Tessera{Thr: 140, Tol: 16} }

// Name implements Engine.
func (t *Tessera) Name() string { return "tessera" }

// Recognize implements Engine.
func (t *Tessera) Recognize(img *imaging.Gray) Result {
	bin := img.PackGE(t.Thr)
	sc := scratchPool.Get().(*scratch)
	sc.segs = bin.SegmentColumns(1, sc.segs)
	res := recognizeSegmentsPacked(bin, sc.segs, t.Tol, 0, 3)
	scratchPool.Put(sc)
	imaging.RecycleBitmap(bin)
	return res
}

// EasyScan is the lenient engine: Otsu binarization (adapts to low
// contrast), connected-component segmentation merged into column groups,
// and a generous match tolerance. It extracts almost everything but
// mis-reads more characters — the EasyOCR profile of Table 4.
type EasyScan struct {
	Tol int
}

// NewEasyScan returns an EasyScan engine with default parameters.
func NewEasyScan() *EasyScan { return &EasyScan{Tol: 36} }

// Name implements Engine.
func (e *EasyScan) Name() string { return "easyscan" }

// Recognize implements Engine.
func (e *EasyScan) Recognize(img *imaging.Gray) Result {
	// Adaptive binarization with polarity detection: if the foreground is
	// darker than the background, binarize with text as 255. Polarity is
	// decided from the Otsu histogram alone — the >= thr tail is exactly
	// the foreground count of binarizing at thr — and the flipped polarity
	// binarizes once with the inverted comparison (p < thr), with no
	// inverted copy of the image.
	hist := img.Histogram256()
	thr := imaging.OtsuHistogram(&hist, len(img.Pix))
	var bin *imaging.Bitmap
	if histTail(&hist, thr) > len(img.Pix)/2 {
		bin = img.PackLE(thr - 1) // OtsuHistogram guarantees thr >= 1
	} else {
		bin = img.PackGE(thr)
	}
	sc := scratchPool.Get().(*scratch)
	sc.comps = bin.ConnectedComponents(sc.comps)
	sc.segs = componentColumns(sc.comps, bin.H, sc.segs)
	res := recognizeSegmentsPacked(bin, mergeOverlapping(sc.segs), e.Tol, 0, 4)
	scratchPool.Put(sc)
	imaging.RecycleBitmap(bin)
	return res
}

// PaddleRead up-scales and smooths before binarizing, segments by column
// projection with a wider gap, and applies a digit prior — a distinct
// confusion profile (slightly more errors than EasyScan, fewer misses than
// Tessera), matching PaddleOCR's row of Table 4.
type PaddleRead struct {
	Tol       int
	DigitBias int
}

// NewPaddleRead returns a PaddleRead engine with default parameters.
func NewPaddleRead() *PaddleRead { return &PaddleRead{Tol: 40, DigitBias: 0} }

// Name implements Engine.
func (p *PaddleRead) Name() string { return "paddleread" }

// Recognize implements Engine. The 2× nearest upscale commutes with
// per-pixel thresholding, and the upscaled image's histogram is exactly 4×
// the original's, so the engine thresholds the original directly into packed
// form and bit-doubles the bitmap — the upscaled grayscale is never
// materialized.
func (p *PaddleRead) Recognize(img *imaging.Gray) Result {
	hist := img.Histogram256()
	for i := range hist {
		hist[i] *= 4
	}
	total := 4 * len(img.Pix)
	thr := imaging.OtsuHistogram(&hist, total)
	var small *imaging.Bitmap
	if histTail(&hist, thr) > total/2 {
		rev := reverseHist(&hist)
		thr2 := imaging.OtsuHistogram(&rev, total)
		// Inverted pixel >= thr2 is original pixel <= 255-thr2.
		small = img.PackLE(255 - thr2)
	} else {
		small = img.PackGE(thr)
	}
	bin := small.Upscale2x()
	imaging.RecycleBitmap(small)
	sc := scratchPool.Get().(*scratch)
	sc.segs = bin.SegmentColumns(2, sc.segs)
	res := recognizeSegmentsPacked(bin, sc.segs, p.Tol, p.DigitBias, 8)
	scratchPool.Put(sc)
	imaging.RecycleBitmap(bin)
	halveBoxes(&res)
	return res
}

// halveBoxes reports character boxes in the caller's coordinate system
// after an engine worked on the image scaled 2×.
func halveBoxes(res *Result) {
	for i := range res.Chars {
		b := &res.Chars[i].Box
		b.X0 /= 2
		b.Y0 /= 2
		b.X1 = (b.X1 + 1) / 2
		b.Y1 = (b.Y1 + 1) / 2
	}
}

// componentColumns returns one full-height column strip per connected
// component, written over buf when it has the capacity.
func componentColumns(comps []imaging.Component, h int, buf []imaging.Rect) []imaging.Rect {
	out := buf[:0]
	for _, c := range comps {
		out = append(out, imaging.Rect{X0: c.Box.X0, Y0: 0, X1: c.Box.X1, Y1: h})
	}
	return out
}

// mergeOverlapping merges column strips whose X ranges overlap (pieces of
// the same character found as separate components).
func mergeOverlapping(rs []imaging.Rect) []imaging.Rect {
	if len(rs) == 0 {
		return rs
	}
	// rs is sorted by X0 (component order). Merge onto a stack.
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.X0 <= last.X1 {
			if r.X1 > last.X1 {
				last.X1 = r.X1
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
