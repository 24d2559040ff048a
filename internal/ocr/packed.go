package ocr

import (
	"math/bits"
	"strings"

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

// normalizeCellPacked resamples the foreground inside box (absolute
// coordinates in bin) to the CellW×CellH grid, packed. It performs the
// scalar normalizeCell's crop → ScaleBilinear → Threshold(128) with the
// identical floating-point expression — sampling bits as 0/255 — so the
// resulting cell is bit-for-bit the scalar one, with zero allocations.
func normalizeCellPacked(bin *imaging.Bitmap, box imaging.Rect) packedCell {
	var cell packedCell
	// Unpack the (small) character box once; the 4-sample bilinear inner
	// loop then reads bytes from row slices instead of doing bit extraction
	// per sample. The buffer is pooled scratch.
	sub := bin.UnpackIn(box)
	tw, th := sub.W, sub.H
	xRatio := float64(tw-1) / float64(max(CellW-1, 1))
	yRatio := float64(th-1) / float64(max(CellH-1, 1))
	// Horizontal sample positions are identical for every output row.
	var sx0, sx1 [CellW]int
	var sdx [CellW]float64
	for x := 0; x < CellW; x++ {
		fx := float64(x) * xRatio
		sx0[x] = int(fx)
		sdx[x] = fx - float64(sx0[x])
		sx1[x] = min(sx0[x]+1, tw-1)
	}
	for y := 0; y < CellH; y++ {
		fy := float64(y) * yRatio
		y0 := int(fy)
		dy := fy - float64(y0)
		y1 := min(y0+1, th-1)
		row0 := sub.Pix[y0*tw : (y0+1)*tw]
		row1 := sub.Pix[y1*tw : (y1+1)*tw]
		for x := 0; x < CellW; x++ {
			dx := sdx[x]
			v := float64(row0[sx0[x]])*(1-dx)*(1-dy) +
				float64(row0[sx1[x]])*dx*(1-dy) +
				float64(row1[sx0[x]])*(1-dx)*dy +
				float64(row1[sx1[x]])*dx*dy
			if uint8(v+0.5) >= 128 {
				cell.setBit(x, y)
			}
		}
	}
	imaging.Recycle(sub)
	return cell
}

// recognizeSegmentsPacked matches each segment of a binary image and
// assembles a Result, rejecting characters whose match distance exceeds
// tol: segment bounds, speck rejection and cell extraction all run on the
// bitmap (popcounts and word scans), with no per-segment image allocations.
func recognizeSegmentsPacked(bin *imaging.Bitmap, segs []imaging.Rect, tol, digitBias, minArea int) Result {
	var res Result
	var sb strings.Builder
	for _, s := range segs {
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
		sb.WriteRune(r)
		res.Chars = append(res.Chars, Char{R: r, Dist: d, Box: abs})
	}
	res.Text = sb.String()
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
