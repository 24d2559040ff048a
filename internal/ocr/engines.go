package ocr

import "tero/internal/imaging"

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
func (t *Tessera) Recognize(img *imaging.Gray) Result { return readAlone(t, img) }

// readPage reads the page's bitmap of the pixels >= Thr, dropping specks
// under 3 pixels.
func (t *Tessera) readPage(pg *Page) Result {
	return pg.bitmap(threshold{level: t.Thr}).read(t.Tol, 0, 3, 0, &t.memo, tesseraMemoCounters)
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
func (e *EasyScan) Recognize(img *imaging.Gray) Result { return readAlone(e, img) }

// readPage binarizes adaptively with polarity detection: if the foreground
// is darker than the background — decided from the histogram alone, since
// the >= Otsu tail is exactly the foreground count of binarizing at the
// Otsu level — text is the pixels below the level (p < thr, with no
// inverted copy of the image), else the pixels at or above it. Specks under
// 4 pixels are dropped.
func (e *EasyScan) readPage(pg *Page) Result {
	thr, dark := pg.otsuLevel()
	t := threshold{level: thr}
	if dark {
		t = threshold{level: thr - 1, below: true} // OtsuHistogram guarantees thr >= 1
	}
	return pg.bitmap(t).read(e.Tol, 0, 4, 0, &e.memo, easyScanMemoCounters)
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

// Recognize implements Engine.
func (p *PaddleRead) Recognize(img *imaging.Gray) Result { return readAlone(p, img) }

// readPage reads the image up-scaled 2× (nearest), but the 2× only changes
// coordinates, so nothing is up-scaled. The histogram of the 2× image is 4×
// the original's, which moves neither the Otsu level (every quantity Otsu
// compares scales by a power of two, exactly) nor the polarity decision, so
// both are the page's; in the flipped polarity the engine runs Otsu again on
// the reversed histogram. Thresholding commutes with the replication, and
// bit (X, Y) of the doubled bitmap is bit (X>>1, Y>>1) of the original's. A
// gap of k empty columns doubles to 2k, which reaches the 2× engine's
// minimum gap of 2 exactly when k ≥ 1, so its strips are
// SegmentColumns(1)'s doubled; a tight box doubles and its area quadruples,
// so a speck under 8 pixels at 2× is one under 2 here; and the cells are
// sampled from the 2× box's table through halved coordinates
// (normalizeCellPacked's shift). The boxes it reports are the 1× boxes the
// 2× ones halve to.
func (p *PaddleRead) readPage(pg *Page) Result {
	thr, dark := pg.otsuLevel()
	t := threshold{level: thr}
	if dark {
		rev := reverseHist(pg.histogram())
		// The inverted image's pixels >= its Otsu level t2 are the
		// original's <= 255-t2.
		t = threshold{level: 255 - imaging.OtsuHistogram(&rev, len(pg.img.Pix)), below: true}
	}
	return pg.bitmap(t).read(p.Tol, p.DigitBias, 2, 1, &p.memo, paddleReadMemoCounters)
}
