// Package ocr implements three independent optical-character-recognition
// engines — Tessera, EasyScan and PaddleRead — standing in for the three
// engines the paper uses (Tesseract, EasyOCR and PaddleOCR, §3.2). Each
// engine has its own binarization, segmentation and matching pipeline, so
// the three genuinely disagree on hard inputs, which is what Tero's
// 2-of-3 voting combiner exploits.
//
// All engines are template matchers over the embedded 5×7 font: a candidate
// character region is tight-cropped, resampled to the glyph grid, and
// matched against every known glyph by Hamming distance. The engines differ
// in how they find regions and how strictly they accept a match:
//
//   - Tessera uses a fixed global threshold (fails on low-contrast text)
//     and strict matching (more misses, like Tesseract's 15.5% miss rate).
//   - EasyScan uses Otsu binarization and lenient matching (fewer misses,
//     more confusions).
//   - PaddleRead up-scales and blurs before Otsu, with a digit prior
//     (different confusion profile).
//
// All engines are safe for concurrent use: recognition keeps no per-call
// state on the engine, and the shared glyph template table is built once at
// package initialization and only ever read afterwards. The concurrent
// image-processing workers of the pipeline rely on this.
//
// Every engine runs on bit-packed binary images (imaging.Bitmap):
// binarization packs 64 pixels per word, segmentation and speck rejection
// are popcounts, and template matching is XOR+popcount against a packed
// template table. The byte-per-pixel reference the packed path must equal
// bit for bit lives in this package's tests (scalar_test.go), composed from
// imaging's Gray kernels.
package ocr

import (
	"sort"

	"tero/internal/font"
	"tero/internal/imaging"
)

// Char is one recognized character.
type Char struct {
	R    rune
	Dist int // Hamming distance to the matched template (0 = perfect)
	Box  imaging.Rect
}

// Result is an engine's output for one image.
type Result struct {
	Text  string
	Chars []Char
}

// Engine recognizes text in a grayscale image.
type Engine interface {
	Name() string
	Recognize(img *imaging.Gray) Result
}

// Engines returns the three engines in the order the paper lists them.
func Engines() []Engine {
	return []Engine{NewTessera(), NewEasyScan(), NewPaddleRead()}
}

// CellW and CellH are the dimensions of the normalized matching grid. A
// grid finer than the font's 5×7 reduces resampling artifacts when the
// input text is rendered at a different scale than the templates.
const (
	CellW = 2 * font.GlyphW
	CellH = 2 * font.GlyphH
)

// template is a tight-normalized glyph bitmap.
type template struct {
	r    rune
	bits [CellW * CellH]bool
}

// templateSet holds the normalized glyph templates, shared by all engines.
var templateSet = buildTemplates()

func buildTemplates() []template {
	var out []template
	runes := font.Runes()
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	for _, r := range runes {
		if r == ' ' {
			continue
		}
		img := font.RenderGlyph(r)
		norm := normalizeCell(img)
		if norm == nil {
			continue
		}
		t := template{r: r}
		for i, p := range norm.Pix {
			if p != 0 {
				t.bits[i] = true
			}
		}
		out = append(out, t)
	}
	return out
}

// normalizeCell tight-crops the foreground of a binary image and resamples
// it to the CellW×CellH grid. Returns nil if the image has no foreground.
// The returned cell is freshly allocated; intermediates are recycled.
func normalizeCell(img *imaging.Gray) *imaging.Gray {
	box := img.TightBox()
	if box.Empty() {
		return nil
	}
	tight := img.Crop(box)
	scaled := tight.ScaleBilinear(CellW, CellH)
	imaging.Recycle(tight)
	cell := scaled.Threshold(128)
	imaging.Recycle(scaled)
	return cell
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }
