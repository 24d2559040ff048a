package ocr

import (
	"math/bits"
	"sync/atomic"
	"unicode/utf8"

	"tero/internal/imaging"
)

// The packed matching path: glyph templates and candidate cells live as
// bit-packed words, and the Hamming distance between a cell and a template
// collapses to a handful of XOR+popcount instructions. The 10×14 normalized
// grid packs 6 rows of 10 bits per 64-bit word (3 words per cell); the
// template table is packed once at init from the same normalized glyphs the
// tests' scalar matcher uses, so both matchers score identically.

// cellRowsPerWord is how many CellW-bit rows share one 64-bit word.
const cellRowsPerWord = 6

// cellWords is the packed cell size: ceil(CellH / cellRowsPerWord).
const cellWords = (CellH + cellRowsPerWord - 1) / cellRowsPerWord

// packedCell is a CellW×CellH binary cell in row-group packing.
type packedCell [cellWords]uint64

// setBit marks cell pixel (x, y) as foreground.
func (c *packedCell) setBit(x, y int) {
	c[y/cellRowsPerWord] |= 1 << (uint(y%cellRowsPerWord)*CellW + uint(x))
}

// packedTemplate mirrors one templateSet entry in packed form.
type packedTemplate struct {
	r    rune
	bits packedCell
}

// packedTemplateSet is built from templateSet in the same order, so the
// packed matcher's tie-breaking walks templates identically.
var packedTemplateSet = buildPackedTemplates()

func buildPackedTemplates() []packedTemplate {
	out := make([]packedTemplate, len(templateSet))
	for i := range templateSet {
		t := &templateSet[i]
		out[i].r = t.r
		for j, set := range t.bits {
			if set {
				out[i].bits.setBit(j%CellW, j/CellW)
			}
		}
	}
	return out
}

// matchCellPacked returns the best-matching rune for a packed cell and its
// Hamming distance — XOR+popcount against every packed template. digitBias
// is subtracted from the distance of digit templates (PaddleRead's digit
// prior); on a tie a digit beats a non-digit.
func matchCellPacked(cell packedCell, digitBias int) (rune, int) {
	bestR := rune(0)
	bestD := 1 << 30
	for i := range packedTemplateSet {
		t := &packedTemplateSet[i]
		d := bits.OnesCount64(cell[0]^t.bits[0]) +
			bits.OnesCount64(cell[1]^t.bits[1]) +
			bits.OnesCount64(cell[2]^t.bits[2])
		eff := d
		if t.r >= '0' && t.r <= '9' {
			eff -= digitBias
		}
		if eff < bestD || (eff == bestD && isDigit(t.r) && !isDigit(bestR)) {
			bestD = eff
			bestR = t.r
		}
	}
	return bestR, bestD
}

// cellTable is the bilinear resampling of a tw×th binary box to the
// CellW×CellH grid followed by Threshold(128), tabulated. For a given box
// size the four sample positions and weights of every cell position are
// fixed, and a sample is only ever 0 or 255, so what the float expression
// decides at a cell position is a function of four bits: sixteen answers,
// one uint16.
type cellTable struct {
	// x0, x1 and y0, y1 are the sample columns and rows of each cell column
	// and row, relative to the box origin.
	x0, x1 [CellW]int32
	y0, y1 [CellH]int32
	// truth[y][x] bit m is the cell pixel when the samples are set as m
	// says: bit 0 (x0, y0), bit 1 (x1, y0), bit 2 (x0, y1), bit 3 (x1, y1).
	truth [CellH][CellW]uint16
}

// buildCellTable evaluates imaging.ScaleBilinear's expression followed by
// Threshold(128) for every cell position of a tw×th box and every setting
// of its four samples. This is the only place the packed path does the
// arithmetic, and every product and sum is rounded by an explicit
// conversion, so no architecture may fuse a multiply into an add here and
// tabulate a different bit than the scalar reference computes.
func buildCellTable(tw, th int) *cellTable {
	t := new(cellTable)
	xRatio := float64(tw-1) / float64(max(CellW-1, 1))
	yRatio := float64(th-1) / float64(max(CellH-1, 1))
	var dxs [CellW]float64
	for x := 0; x < CellW; x++ {
		fx := float64(float64(x) * xRatio)
		x0 := int(fx)
		dxs[x] = fx - float64(x0)
		t.x0[x], t.x1[x] = int32(x0), int32(min(x0+1, tw-1))
	}
	for y := 0; y < CellH; y++ {
		fy := float64(float64(y) * yRatio)
		y0 := int(fy)
		dy := fy - float64(y0)
		t.y0[y], t.y1[y] = int32(y0), int32(min(y0+1, th-1))
		for x, dx := range dxs {
			for m := 0; m < 16; m++ {
				p00, p01 := float64(255*(m&1)), float64(255*(m>>1&1))
				p10, p11 := float64(255*(m>>2&1)), float64(255*(m>>3&1))
				v := float64(p00*(1-dx)*(1-dy)) +
					float64(p01*dx*(1-dy)) +
					float64(p10*(1-dx)*dy) +
					float64(p11*dx*dy)
				if uint8(v+0.5) >= 128 {
					t.truth[y][x] |= 1 << m
				}
			}
		}
	}
	return t
}

// cellTableMemoDim bounds the memoised box sizes. Glyph boxes of a latency
// display are a few pixels to a few dozen on a side; whatever a hostile
// thumbnail holds, the memo is at most cellTableMemoDim² tables of ≈ 0.5 KB,
// filled as sizes are first seen.
const cellTableMemoDim = 64

var cellTables [cellTableMemoDim * cellTableMemoDim]atomic.Pointer[cellTable]

// cellTableFor returns the table of a tw×th box (tw, th ≥ 1): memoised up to
// cellTableMemoDim on a side, built for the one call beyond. Goroutines that
// meet a size together each build the same table and any one of them is
// kept.
func cellTableFor(tw, th int) *cellTable {
	if tw > cellTableMemoDim || th > cellTableMemoDim {
		return buildCellTable(tw, th)
	}
	slot := &cellTables[(tw-1)*cellTableMemoDim+th-1]
	t := slot.Load()
	if t == nil {
		t = buildCellTable(tw, th)
		slot.Store(t)
	}
	return t
}

// normalizeCellPacked resamples the foreground inside box (absolute
// coordinates in bin, non-empty and inside it) to the CellW×CellH grid,
// packed: the scalar normalizeCell's crop → ScaleBilinear → Threshold(128),
// bit for bit, as 140 four-bit lookups in the box size's table on bits read
// straight off the bitmap's row words — nothing unpacked, no arithmetic on
// samples.
func normalizeCellPacked(bin *imaging.Bitmap, box imaging.Rect) packedCell {
	t := cellTableFor(box.Width(), box.Height())
	var c0, c1 [CellW]uint
	for x := range c0 {
		c0[x], c1[x] = uint(box.X0)+uint(t.x0[x]), uint(box.X0)+uint(t.x1[x])
	}
	// gather reads a source row's bits at the sample columns, four bits per
	// cell column with the last column lowest: bit 0 of a nibble is the
	// sample at x0, bit 1 the one at x1, bits 2 and 3 are left for the row
	// below. Neighbouring cell rows share source rows (a glyph is rarely
	// taller than the grid), so the two rows last gathered are kept.
	gather := func(sy int32) uint64 {
		row := bin.Row(box.Y0 + int(sy))
		var g uint64
		for x := 0; x < CellW; x++ {
			a, b := c0[x], c1[x]
			g = g<<4 | (row[a>>6]>>(a&63)&1 | row[b>>6]>>(b&63)&1<<1)
		}
		return g
	}
	var cell packedCell
	ya, yb := int32(-1), int32(-1)
	var ga, gb uint64
	for y := 0; y < CellH; y++ {
		y0, y1 := t.y0[y], t.y1[y]
		if y0 == yb {
			ya, ga, yb = yb, gb, -1
		} else if y0 != ya {
			ya, ga = y0, gather(y0)
		}
		if y1 == ya {
			yb, gb = ya, ga
		} else if y1 != yb {
			yb, gb = y1, gather(y1)
		}
		truth := &t.truth[y]
		m := ga | gb<<2 // a nibble is a cell column's truth-table index
		var bits uint64
		for x := CellW - 1; x >= 0; x-- {
			bits = bits<<1 | uint64(truth[x]>>(m&15)&1)
			m >>= 4
		}
		cell[y/cellRowsPerWord] |= bits << (uint(y%cellRowsPerWord) * CellW)
	}
	return cell
}

// recognizeSegmentsPacked matches each segment of a binary image and
// assembles a Result, rejecting characters whose match distance exceeds
// tol: segment bounds, speck rejection and cell extraction all run on the
// bitmap (popcounts and word scans), with no per-segment image allocations.
// The Result is the caller's: Chars is allocated once, at the first accepted
// character and for as many as there are segments left, and Text once, at
// its final length.
func recognizeSegmentsPacked(bin *imaging.Bitmap, segs []imaging.Rect, tol, digitBias, minArea int) Result {
	var res Result
	text := make([]byte, 0, 64) // on the stack unless a line has more glyphs than a latency display
	for i, s := range segs {
		s = s.Clamp(bin.W, bin.H)
		if s.Empty() {
			continue
		}
		box, area := bin.TightBoxCountIn(s)
		if box.Empty() {
			continue
		}
		if area < minArea {
			continue // specks of noise
		}
		abs := imaging.Rect{
			X0: s.X0 + box.X0, Y0: s.Y0 + box.Y0,
			X1: s.X0 + box.X1, Y1: s.Y0 + box.Y1,
		}
		cell := normalizeCellPacked(bin, abs)
		r, d := matchCellPacked(cell, digitBias)
		if d > tol {
			continue // unrecognized character: engine stays silent
		}
		if res.Chars == nil {
			res.Chars = make([]Char, 0, len(segs)-i)
		}
		text = utf8.AppendRune(text, r)
		res.Chars = append(res.Chars, Char{R: r, Dist: d, Box: abs})
	}
	res.Text = string(text)
	return res
}

// histTail returns the number of pixels with intensity >= t — the
// foreground count of Threshold(t), read off the histogram instead of
// re-scanning the binarized image.
func histTail(hist *[256]int, t uint8) int {
	n := 0
	for i := int(t); i < 256; i++ {
		n += hist[i]
	}
	return n
}

// reverseHist returns the histogram of the inverted image (level p becomes
// 255-p), so Otsu can run on the flipped polarity without a pixel pass.
func reverseHist(hist *[256]int) [256]int {
	var out [256]int
	for i, c := range hist {
		out[255-i] = c
	}
	return out
}
