package ocr

import (
	"sync"
	"unicode/utf8"

	"tero/internal/imaging"
	"tero/internal/obs"
)

// A Page is one image as the engines read it. Each engine binarizes by a
// rule of its own (a threshold), but a threshold only decides which
// intensity levels are foreground, and two thresholds that agree on every
// level the image holds select the same pixels. On a latency crop they
// mostly do — the text and the background are a few levels each, far
// apart — so a page keeps, once, what binarizing and segmenting produce:
// the image's histogram and, for each distinct set of foreground pixels,
// the packed bitmap with its glyphs (each SegmentColumns(1) strip's tight
// box and pixel count). Whether a bitmap serves a second threshold is read
// off the histogram, and is exact. What a reading keeps of its own — speck
// size, sampling shift, tolerance, digit bias and glyph memo — is the
// engine's, applied to the boxes it reads off the page.
//
// A page belongs to one goroutine: the engines read it one after another.
// Release returns it, and every bitmap it packed, to their pools.
type Page struct {
	img *imaging.Gray

	hist   [256]int
	levels [4]uint64 // bit v&63 of word v>>6: hist[v] > 0
	histOK bool
	otsu   uint8 // Otsu level; 0 until computed (OtsuHistogram never returns 0)
	dark   bool  // the >= otsu tail holds more than half the pixels

	bitmaps []pageBitmap
	strips  []imaging.Rect // SegmentColumns scratch

	packed, reused int64 // ocr_bitmaps_total, added at Release
}

// threshold is the outcome of a binarization rule on one image: the pixels
// >= level are foreground, or the pixels <= level when below.
type threshold struct {
	level uint8
	below bool
}

// pageBitmap is one distinct set of foreground pixels of a page.
type pageBitmap struct {
	thr    threshold // the first threshold that selected it
	bin    *imaging.Bitmap
	glyphs []glyph // one per SegmentColumns(1) strip, left to right
}

// glyph is a strip's tight box, in the bitmap's coordinates, and its
// foreground pixel count.
type glyph struct {
	box  imaging.Rect
	area int
}

// pageReader is an engine that reads a page's bitmaps: the built-in
// engines. Any other Engine (a wrapper, a test double) recognizes the
// page's image itself.
type pageReader interface {
	readPage(pg *Page) Result
}

var pagePool = sync.Pool{New: func() any { return new(Page) }}

// ocr_bitmaps_total counts the bitmaps the engines asked pages for: packed
// for a new set of foreground pixels, or reused from an earlier threshold's.
var (
	bitmapsPacked = lazyCounter{name: obs.Lbl("ocr_bitmaps_total", "result", "packed")}
	bitmapsReused = lazyCounter{name: obs.Lbl("ocr_bitmaps_total", "result", "reused")}
)

// NewPage returns a page of img from the pool. img must not change until
// the page is released.
func NewPage(img *imaging.Gray) *Page {
	pg := pagePool.Get().(*Page)
	pg.img = img
	return pg
}

// Read returns e's reading of the page's image: a built-in engine reads
// the page's shared bitmaps, any other Engine runs Recognize on the image.
// Either way the Result is e.Recognize's.
func (pg *Page) Read(e Engine) Result {
	if r, ok := e.(pageReader); ok {
		return r.readPage(pg)
	}
	return e.Recognize(pg.img)
}

// Release counts the page's bitmaps in ocr_bitmaps_total and returns the
// page and its bitmaps to their pools. Results read off it stay valid: they
// share nothing with the page.
func (pg *Page) Release() {
	for i := range pg.bitmaps {
		imaging.RecycleBitmap(pg.bitmaps[i].bin)
		pg.bitmaps[i].bin = nil
	}
	pg.bitmaps = pg.bitmaps[:0]
	bitmapsPacked.add(pg.packed)
	bitmapsReused.add(pg.reused)
	pg.img, pg.histOK, pg.otsu, pg.packed, pg.reused = nil, false, 0, 0, 0
	pagePool.Put(pg)
}

// readAlone is an engine's Recognize: one reading of a page of its own.
func readAlone(r pageReader, img *imaging.Gray) Result {
	pg := NewPage(img)
	res := r.readPage(pg)
	pg.Release()
	return res
}

// histogram returns the image's histogram, counted at the first call.
func (pg *Page) histogram() *[256]int {
	if !pg.histOK {
		pg.hist = pg.img.Histogram256()
		pg.levels = [4]uint64{}
		for v, c := range pg.hist {
			if c > 0 {
				pg.levels[v>>6] |= 1 << (v & 63)
			}
		}
		pg.histOK = true
	}
	return &pg.hist
}

// otsuLevel returns the image's Otsu level and whether the pixels at or
// above it are more than half the image — text darker than its background.
func (pg *Page) otsuLevel() (uint8, bool) {
	if pg.otsu == 0 {
		hist := pg.histogram()
		pg.otsu = imaging.OtsuHistogram(hist, len(pg.img.Pix))
		pg.dark = histTail(hist, pg.otsu) > len(pg.img.Pix)/2
	}
	return pg.otsu, pg.dark
}

// atLeast returns the levels >= v (0 ≤ v ≤ 256) as a 256-bit set.
func atLeast(v int) [4]uint64 {
	var s [4]uint64
	for k := range s {
		switch d := v - 64*k; {
		case d <= 0:
			s[k] = ^uint64(0)
		case d < 64:
			s[k] = ^uint64(0) << uint(d)
		}
	}
	return s
}

// selects returns the levels t makes foreground as a 256-bit set.
func (t threshold) selects() [4]uint64 {
	if !t.below {
		return atLeast(int(t.level))
	}
	s := atLeast(int(t.level) + 1) // p <= level is the complement of p >= level+1
	for k := range s {
		s[k] = ^s[k]
	}
	return s
}

// sameForeground reports whether a and b make the same pixels of the page
// foreground: exactly when they agree on every level its histogram counts.
func (pg *Page) sameForeground(a, b threshold) bool {
	pg.histogram()
	sa, sb := a.selects(), b.selects()
	for k, lv := range pg.levels {
		if (sa[k]^sb[k])&lv != 0 {
			return false
		}
	}
	return true
}

// bitmap returns the page's bitmap of the pixels t makes foreground: one
// packed before for a threshold that selects the same pixels, or a new one,
// packed, segmented and tight-boxed now. The pointer is valid until the
// next call.
func (pg *Page) bitmap(t threshold) *pageBitmap {
	for i := range pg.bitmaps {
		if pg.sameForeground(pg.bitmaps[i].thr, t) {
			pg.reused++
			return &pg.bitmaps[i]
		}
	}
	var bin *imaging.Bitmap
	if t.below {
		bin = pg.img.PackLE(t.level)
	} else {
		bin = pg.img.PackGE(t.level)
	}
	pg.packed++
	n := len(pg.bitmaps)
	if n < cap(pg.bitmaps) {
		pg.bitmaps = pg.bitmaps[:n+1] // keeps the slot's glyph buffer
	} else {
		pg.bitmaps = append(pg.bitmaps, pageBitmap{})
	}
	b := &pg.bitmaps[n]
	b.thr, b.bin = t, bin
	pg.strips = bin.SegmentColumns(1, pg.strips)
	b.glyphs = b.glyphs[:0]
	for _, s := range pg.strips {
		// A strip has an occupied column, so its box is never empty.
		box, area := bin.TightBoxCountIn(s)
		b.glyphs = append(b.glyphs, glyph{area: area, box: imaging.Rect{
			X0: s.X0 + box.X0, Y0: s.Y0 + box.Y0,
			X1: s.X0 + box.X1, Y1: s.Y0 + box.Y1,
		}})
	}
	return b
}

// read is one engine's reading of the bitmap: glyphs under minArea pixels
// are specks and skipped, every other box is classified through memo (nil:
// none) as sampled 2^shift× (normalizeCellPacked), and a match farther than
// tol is dropped. Boxes are counted, by how they were classified, in a
// local tally added to mc once at the end. The Result is the caller's:
// Chars is allocated once, at the first accepted character and for as many
// as there are glyphs left, and Text once, at its final length.
func (b *pageBitmap) read(tol, digitBias, minArea int, shift uint, memo *glyphMemo, mc *memoCounters) Result {
	var res Result
	var n memoCounts
	text := make([]byte, 0, 64) // on the stack unless a line has more glyphs than a latency display
	for i, g := range b.glyphs {
		if g.area < minArea {
			continue // specks of noise
		}
		r, d, how := memo.classify(b.bin, g.box, shift, digitBias)
		n[how]++
		if d > tol {
			continue // unrecognized character: engine stays silent
		}
		if res.Chars == nil {
			res.Chars = make([]Char, 0, len(b.glyphs)-i)
		}
		text = utf8.AppendRune(text, r)
		res.Chars = append(res.Chars, Char{R: r, Dist: d, Box: g.box})
	}
	res.Text = string(text)
	mc.add(&n)
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
