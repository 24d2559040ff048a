package ocr

import (
	"strings"

	"tero/internal/imaging"
)

// The byte-per-pixel reference: the three engines composed from imaging's
// Gray kernels (Threshold, SegmentColumns, ConnectedComponents, Crop,
// TightBox, ScaleBilinear) and a bool-per-pixel template matcher. It is the
// oracle the packed production engines must equal bit for bit — same Text,
// and same per-character rune, Hamming distance and box — in
// TestPackedMatchesScalar here and, through export_test.go, in the corpus
// tests of package ocr_test. Nothing outside the tests runs it.

// scalarEngines returns the reference engines in Engines() order, with the
// production engines' parameters.
func scalarEngines() []Engine {
	return []Engine{scalarTessera{NewTessera()}, scalarEasyScan{NewEasyScan()}, scalarPaddleRead{NewPaddleRead()}}
}

type scalarTessera struct{ *Tessera }

func (t scalarTessera) Recognize(img *imaging.Gray) Result {
	bin := img.Threshold(t.Thr)
	segs := bin.SegmentColumns(1)
	res := recognizeSegments(bin, segs, t.Tol, 0, 3)
	imaging.Recycle(bin)
	return res
}

type scalarEasyScan struct{ *EasyScan }

func (e scalarEasyScan) Recognize(img *imaging.Gray) Result {
	hist := img.Histogram256()
	thr := imaging.OtsuHistogram(&hist, len(img.Pix))
	var bin *imaging.Gray
	if histTail(&hist, thr) > len(img.Pix)/2 {
		bin = img.ThresholdBelow(thr)
	} else {
		bin = img.Threshold(thr)
	}
	segs := mergeOverlapping(componentColumns(bin.ConnectedComponents(), bin.H, nil))
	res := recognizeSegments(bin, segs, e.Tol, 0, 4)
	imaging.Recycle(bin)
	return res
}

type scalarPaddleRead struct{ *PaddleRead }

func (p scalarPaddleRead) Recognize(img *imaging.Gray) Result {
	up := img.ScaleNearest(2)
	hist := up.Histogram256()
	thr := imaging.OtsuHistogram(&hist, len(up.Pix))
	if histTail(&hist, thr) > len(up.Pix)/2 {
		// Dark-on-light: invert in place (up is private scratch) and rerun
		// Otsu on the reversed histogram — no clone, no re-scan.
		up.Invert()
		rev := reverseHist(&hist)
		thr = imaging.OtsuHistogram(&rev, len(up.Pix))
	}
	bin := up.Threshold(thr)
	segs := bin.SegmentColumns(2)
	res := recognizeSegments(bin, segs, p.Tol, p.DigitBias, 8)
	imaging.Recycle(bin)
	imaging.Recycle(up)
	halveBoxes(&res)
	return res
}

// matchCell returns the best-matching rune for a normalized cell and its
// Hamming distance. digitBias is subtracted from the distance of digit
// templates (used by PaddleRead's digit prior).
func matchCell(cell *imaging.Gray, digitBias int) (rune, int) {
	bestR := rune(0)
	bestD := 1 << 30
	for _, t := range templateSet {
		d := 0
		for i, p := range cell.Pix {
			fg := p != 0
			if fg != t.bits[i] {
				d++
			}
		}
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

// recognizeSegments matches each segment of a binary image and assembles a
// Result, rejecting characters whose match distance exceeds tol.
func recognizeSegments(bin *imaging.Gray, segs []imaging.Rect, tol, digitBias int, minArea int) Result {
	var res Result
	var sb strings.Builder
	for _, s := range segs {
		sub := bin.Crop(s)
		box := sub.TightBox()
		if box.Empty() {
			imaging.Recycle(sub)
			continue
		}
		area := 0
		for _, p := range sub.Pix {
			if p != 0 {
				area++
			}
		}
		if area < minArea {
			imaging.Recycle(sub)
			continue // specks of noise
		}
		cell := normalizeCell(sub)
		imaging.Recycle(sub)
		if cell == nil {
			continue
		}
		r, d := matchCell(cell, digitBias)
		imaging.Recycle(cell)
		if d > tol {
			continue // unrecognized character: engine stays silent
		}
		sb.WriteRune(r)
		res.Chars = append(res.Chars, Char{R: r, Dist: d, Box: imaging.Rect{
			X0: s.X0 + box.X0, Y0: s.Y0 + box.Y0, X1: s.X0 + box.X1, Y1: s.Y0 + box.Y1}})
	}
	res.Text = sb.String()
	return res
}
