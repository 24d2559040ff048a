package ocr

import (
	"sync"

	"tero/internal/imaging"
)

// scratch holds the column strips one Recognize call segments into. They do
// not outlive the call — a Result's boxes are copies — and three engines
// segment an image each per thumbnail.
type scratch struct {
	segs []imaging.Rect
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

	memo glyphMemo // empty in the zero value; see memo.go
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
	res := recognizeSegmentsPacked(bin, sc.segs, t.Tol, 0, 3, 0, &t.memo, &tesseraMemoCounters)
	scratchPool.Put(sc)
	imaging.RecycleBitmap(bin)
	return res
}

// EasyScan is the lenient engine: Otsu binarization (adapts to low
// contrast) with polarity detection, column-projection segmentation and a
// generous match tolerance. It extracts almost everything but mis-reads
// more characters — the EasyOCR profile of Table 4.
//
// It has no segmentation step of its own. Its connected components, each
// widened to a full-height strip and merged where strips overlap or touch,
// are exactly the maximal runs of occupied columns, so it cuts the strips
// SegmentColumns(1) cuts; scalar_test.go keeps the component route as the
// oracle, and TestComponentStripsAreColumnRuns checks the identity.
type EasyScan struct {
	Tol int

	memo glyphMemo
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
	sc.segs = bin.SegmentColumns(1, sc.segs)
	res := recognizeSegmentsPacked(bin, sc.segs, e.Tol, 0, 4, 0, &e.memo, &easyScanMemoCounters)
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

	memo glyphMemo
}

// NewPaddleRead returns a PaddleRead engine with default parameters.
func NewPaddleRead() *PaddleRead { return &PaddleRead{Tol: 40, DigitBias: 0} }

// Name implements Engine.
func (p *PaddleRead) Name() string { return "paddleread" }

// Recognize implements Engine. The engine works on the image up-scaled 2×
// (nearest), but the 2× only changes coordinates, so nothing is up-scaled:
// the histogram of the 2× image is 4× the original's, thresholding commutes
// with the replication, and bit (X, Y) of the doubled bitmap is bit
// (X>>1, Y>>1) of the original's. A gap of k empty columns doubles to 2k,
// which reaches the 2× engine's minimum gap of 2 exactly when k ≥ 1, so its
// strips are SegmentColumns(1)'s doubled; a tight box doubles and its area
// quadruples, so a speck under 8 pixels at 2× is one under 2 here; and the
// cells are sampled from the 2× box's table through halved coordinates
// (normalizeCellPacked's shift). The boxes it reports are the 1× boxes the
// 2× ones halve to.
func (p *PaddleRead) Recognize(img *imaging.Gray) Result {
	hist := img.Histogram256()
	for i := range hist {
		hist[i] *= 4
	}
	total := 4 * len(img.Pix)
	thr := imaging.OtsuHistogram(&hist, total)
	var bin *imaging.Bitmap
	if histTail(&hist, thr) > total/2 {
		rev := reverseHist(&hist)
		thr2 := imaging.OtsuHistogram(&rev, total)
		// Inverted pixel >= thr2 is original pixel <= 255-thr2.
		bin = img.PackLE(255 - thr2)
	} else {
		bin = img.PackGE(thr)
	}
	sc := scratchPool.Get().(*scratch)
	sc.segs = bin.SegmentColumns(1, sc.segs)
	res := recognizeSegmentsPacked(bin, sc.segs, p.Tol, p.DigitBias, 2, 1, &p.memo, &paddleReadMemoCounters)
	scratchPool.Put(sc)
	imaging.RecycleBitmap(bin)
	return res
}
