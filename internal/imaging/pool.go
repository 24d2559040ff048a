package imaging

import "sync"

// The extraction hot path (crop → up-scale → blur → threshold → per-segment
// cells, times three OCR engines) creates many short-lived images per
// thumbnail. A scratch pool lets concurrent extraction workers reuse pixel
// buffers instead of hammering the allocator: New draws from the pool when a
// recycled buffer is large enough, and Recycle returns an image once the
// caller can guarantee no references to it remain.
var grayPool sync.Pool // holds *Gray with capacity-retained Pix

// newPooled returns a zeroed w×h image, reusing pooled storage when a
// recycled buffer of sufficient capacity is available. New delegates here,
// so every imaging operation transparently benefits from recycling.
func newPooled(w, h int) *Gray {
	n := w * h
	if v := grayPool.Get(); v != nil {
		g := v.(*Gray)
		if cap(g.Pix) >= n {
			g.W, g.H = w, h
			g.Pix = g.Pix[:n]
			clear(g.Pix)
			return g
		}
		// Too small for this request: let it be collected.
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, n)}
}

// Recycle returns an image's storage to the scratch pool. The caller must
// guarantee that no references to the image or its Pix slice remain; the
// image is cleared to a 0×0 husk so accidental reuse fails loudly rather
// than silently reading recycled pixels. Recycling is optional — images that
// escape to long-lived structures are simply left to the garbage collector.
// Safe for concurrent use.
func Recycle(g *Gray) {
	if g == nil || g.Pix == nil {
		return
	}
	g.W, g.H = 0, 0
	g.Pix = g.Pix[:0]
	grayPool.Put(g)
}

// bitmapPool recycles packed binary images exactly like grayPool recycles
// Gray: the OCR engines allocate one or two Bitmaps per Recognize call,
// and the pipeline's concurrent extraction workers would otherwise churn
// the allocator with them.
var bitmapPool sync.Pool // holds *Bitmap with capacity-retained Words

// newPooledBitmap returns a zeroed w×h bitmap, reusing pooled storage when
// a recycled buffer of sufficient capacity is available. NewBitmap
// delegates here.
func newPooledBitmap(w, h int) *Bitmap {
	stride := bitmapStride(w)
	n := stride * h
	if v := bitmapPool.Get(); v != nil {
		b := v.(*Bitmap)
		if cap(b.Words) >= n {
			b.W, b.H, b.Stride = w, h, stride
			b.Words = b.Words[:n]
			clear(b.Words)
			return b
		}
	}
	return &Bitmap{W: w, H: h, Stride: stride, Words: make([]uint64, n)}
}

// RecycleBitmap returns a bitmap's storage to the scratch pool. The caller
// must guarantee that no references to the bitmap or its Words slice
// remain; the bitmap is cleared to a 0×0 husk so accidental reuse fails
// loudly. Recycling is optional. Safe for concurrent use.
func RecycleBitmap(b *Bitmap) {
	if b == nil || b.Words == nil {
		return
	}
	b.W, b.H, b.Stride = 0, 0, 0
	b.Words = b.Words[:0]
	bitmapPool.Put(b)
}

// blurScratch is the working storage of one separable Gaussian blur: the
// float64 intermediate rows between the two passes (the single largest
// per-extraction transient), one source row expanded by the replication
// factor, and the accumulator row of the general-radius vertical pass.
type blurScratch struct {
	tmp  []float64
	acc  []float64
	line []uint8
}

var blurPool sync.Pool // holds *blurScratch

// getBlurScratch returns scratch with nTmp intermediate values and w-wide
// line and accumulator rows. Contents are undefined: the blur overwrites
// every element it reads.
func getBlurScratch(nTmp, w int) *blurScratch {
	sc, _ := blurPool.Get().(*blurScratch)
	if sc == nil {
		sc = new(blurScratch)
	}
	if cap(sc.tmp) < nTmp {
		sc.tmp = make([]float64, nTmp)
	}
	if cap(sc.acc) < w {
		sc.acc = make([]float64, w)
		sc.line = make([]uint8, w)
	}
	sc.tmp, sc.acc, sc.line = sc.tmp[:nTmp], sc.acc[:w], sc.line[:w]
	return sc
}

// brun is one horizontal run of set bits: row y, columns [x0, x1).
type brun struct{ y, x0, x1 int32 }

// ccScratch is the working storage of Bitmap.ConnectedComponents: the run
// list, the per-row index into it and the union-find arrays. None of it
// outlives the call (the returned components are a fresh, caller-owned
// slice), and the OCR engines label several bitmaps per thumbnail.
type ccScratch struct {
	runs     []brun
	rowStart []int32
	uf       []int32 // parent, then compOf: 2 × runs
}

var ccPool sync.Pool // holds *ccScratch

// getCCScratch returns scratch sized for nRuns runs over nRows row
// boundaries. Contents are undefined: the labeller overwrites every element
// it reads.
func getCCScratch(nRuns, nRows int) *ccScratch {
	sc, _ := ccPool.Get().(*ccScratch)
	if sc == nil {
		sc = new(ccScratch)
	}
	if cap(sc.runs) < nRuns {
		sc.runs = make([]brun, nRuns)
		sc.uf = make([]int32, 2*nRuns)
	}
	if cap(sc.rowStart) < nRows {
		sc.rowStart = make([]int32, nRows)
	}
	sc.runs, sc.uf, sc.rowStart = sc.runs[:nRuns], sc.uf[:2*nRuns], sc.rowStart[:nRows]
	return sc
}
