package imaging

import (
	"encoding/binary"
	"math/bits"
)

// Bitmap is a bit-packed binary image: 1 bit per pixel, rows padded to
// 64-bit words. Bit b of Words[y*Stride+k] is the pixel at (k*64+b, y);
// a set bit is foreground (the 255 of a thresholded Gray). The padding
// bits of the last word of each row (columns >= W) are invariantly zero,
// which lets every counting kernel popcount whole words without masking.
//
// The post-binarization OCR pipeline (threshold → segmentation → template
// matching) runs on this representation at word speed: 64 pixels per
// OR/AND/XOR, foreground counts via math/bits.OnesCount64. The scalar Gray
// kernels remain the reference implementation; TestBitmapOpsMatchGray pins
// bit-identical behaviour.
type Bitmap struct {
	W, H   int
	Stride int // words per row: (W+63)/64
	Words  []uint64
}

const wordBits = 64

func bitmapStride(w int) int { return (w + wordBits - 1) / wordBits }

// NewBitmap returns an all-zero w×h bitmap. Storage may come from the
// package's scratch pool (see RecycleBitmap); a fresh bitmap is always
// zeroed.
func NewBitmap(w, h int) *Bitmap {
	if w < 0 || h < 0 {
		panic("imaging: invalid bitmap size")
	}
	return newPooledBitmap(w, h)
}

// Row returns the word slice of row y.
func (b *Bitmap) Row(y int) []uint64 { return b.Words[y*b.Stride : (y+1)*b.Stride] }

// tailMask returns the valid-bit mask of the last word of a row (all ones
// when W is a multiple of 64).
func (b *Bitmap) tailMask() uint64 {
	if r := uint(b.W) % wordBits; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// Get reports whether the pixel at (x, y) is foreground; out-of-bounds
// reads return false.
func (b *Bitmap) Get(x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.Words[y*b.Stride+x>>6]>>(uint(x)&63)&1 != 0
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (b *Bitmap) Set(x, y int, v bool) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	if v {
		b.Words[y*b.Stride+x>>6] |= 1 << (uint(x) & 63)
	} else {
		b.Words[y*b.Stride+x>>6] &^= 1 << (uint(x) & 63)
	}
}

// SWAR constants for packGE8: per-byte MSBs, low 7 bits, and the multiplier
// that gathers the eight byte-MSBs of a word into its top byte.
const (
	swarH      = 0x8080808080808080
	swarL      = 0x7f7f7f7f7f7f7f7f
	swarOnes   = 0x0101010101010101
	swarGather = 0x0002040810204081
)

// packGE8 returns the 8-bit mask of bytes >= t among the 8 bytes of x
// (byte j maps to bit j). tv is t replicated to every byte; c is the
// precomputed per-byte addend 0x80 - (t & 0x7f).
//
// Per byte: x >= t iff (msb(x) and not msb(t)) or (msb(x) == msb(t) and
// low7(x) >= low7(t)); the latter is the MSB of low7(x) + (0x80 - low7(t)),
// which cannot carry across bytes. The multiply gathers the byte-MSBs.
func packGE8(x, tv, c uint64) uint64 {
	s := (x & swarL) + c
	ge := ((x &^ tv) | (s &^ (x ^ tv))) & swarH
	return ge * swarGather >> 56
}

// PackGE binarizes directly into packed form: pixels >= t become set bits.
// It is the packed counterpart of Threshold(t), comparing 8 pixels per
// SWAR step.
func (g *Gray) PackGE(t uint8) *Bitmap {
	b := NewBitmap(g.W, g.H)
	tv := uint64(t) * swarOnes
	c := uint64(swarH) - (tv & swarL)
	n8 := g.W >> 3 // full 8-byte groups per row
	for y := 0; y < g.H; y++ {
		row := g.Pix[y*g.W : (y+1)*g.W]
		out := b.Words[y*b.Stride : (y+1)*b.Stride]
		var acc uint64
		for j := 0; j < n8; j++ {
			x := binary.LittleEndian.Uint64(row[j<<3:])
			acc |= packGE8(x, tv, c) << ((uint(j) & 7) << 3)
			if j&7 == 7 {
				out[j>>3] = acc
				acc = 0
			}
		}
		for i := n8 << 3; i < g.W; i++ {
			if row[i] >= t {
				acc |= 1 << (uint(i) & 63)
			}
		}
		if g.W&63 != 0 {
			out[len(out)-1] = acc
		}
	}
	return b
}

// PackLE binarizes with the inverted comparison: pixels <= t become set
// bits. Binarizing a dark-foreground image this way equals inverting the
// image and thresholding at 255-t, without the extra passes.
func (g *Gray) PackLE(t uint8) *Bitmap {
	b := NewBitmap(g.W, g.H)
	if t == 255 { // every pixel matches
		tail := b.tailMask()
		for y := 0; y < b.H; y++ {
			row := b.Row(y)
			for k := range row {
				row[k] = ^uint64(0)
			}
			if len(row) > 0 {
				row[len(row)-1] &= tail
			}
		}
		return b
	}
	// p <= t is the complement of p >= t+1.
	tv := uint64(t+1) * swarOnes
	c := uint64(swarH) - (tv & swarL)
	n8 := g.W >> 3
	for y := 0; y < g.H; y++ {
		row := g.Pix[y*g.W : (y+1)*g.W]
		out := b.Words[y*b.Stride : (y+1)*b.Stride]
		var acc uint64
		for j := 0; j < n8; j++ {
			x := binary.LittleEndian.Uint64(row[j<<3:])
			acc |= (packGE8(x, tv, c) ^ 0xff) << ((uint(j) & 7) << 3)
			if j&7 == 7 {
				out[j>>3] = acc
				acc = 0
			}
		}
		for i := n8 << 3; i < g.W; i++ {
			if row[i] <= t {
				acc |= 1 << (uint(i) & 63)
			}
		}
		if g.W&63 != 0 {
			out[len(out)-1] = acc
		}
	}
	return b
}

// rangeMasks returns the word index range [k0, k1] covering columns
// [x0, x1) and the partial masks for the first and last word.
func rangeMasks(x0, x1 int) (k0, k1 int, first, last uint64) {
	k0 = x0 >> 6
	k1 = (x1 - 1) >> 6
	first = ^uint64(0) << (uint(x0) & 63)
	last = ^uint64(0) >> (63 - uint(x1-1)&63)
	return
}

// TightBoxCountIn returns the bounding box of the foreground inside r
// (clamped), in coordinates relative to r's origin — mirroring Crop(r) +
// TightBox() on the scalar path, without the copy — and the number of
// foreground pixels in it, from a single scan of the rectangle (the
// per-segment speck check needs both). The box is empty if r holds no
// foreground.
func (b *Bitmap) TightBoxCountIn(r Rect) (Rect, int) {
	r = r.Clamp(b.W, b.H)
	if r.Empty() {
		return Rect{}, 0
	}
	k0, k1, first, last := rangeMasks(r.X0, r.X1)
	minX, maxX := r.X1, r.X0-1
	minY, maxY := -1, -1
	n := 0
	for y := r.Y0; y < r.Y1; y++ {
		row := b.Words[y*b.Stride : (y+1)*b.Stride]
		lo, hi := -1, -1
		for k := k0; k <= k1; k++ {
			w := row[k]
			if k == k0 {
				w &= first
			}
			if k == k1 {
				w &= last
			}
			if w == 0 {
				continue
			}
			n += bits.OnesCount64(w)
			if lo < 0 {
				lo = k<<6 + bits.TrailingZeros64(w)
			}
			hi = k<<6 + 63 - bits.LeadingZeros64(w)
		}
		if lo < 0 {
			continue
		}
		if minY < 0 {
			minY = y
		}
		maxY = y
		if lo < minX {
			minX = lo
		}
		if hi > maxX {
			maxX = hi
		}
	}
	if minY < 0 {
		return Rect{}, 0
	}
	return Rect{X0: minX - r.X0, Y0: minY - r.Y0, X1: maxX + 1 - r.X0, Y1: maxY + 1 - r.Y0}, n
}

// SegmentColumns splits the bitmap into vertical strips separated by at
// least minGap consecutive empty columns — identical output to the scalar
// Gray.SegmentColumns. Column occupancy is a word-wise OR over rows. The
// strips are written over buf when it has the capacity (nil for a fresh
// slice): the engines segment several bitmaps per thumbnail into one scratch.
func (b *Bitmap) SegmentColumns(minGap int, buf []Rect) []Rect {
	var occBuf [8]uint64 // 512 columns; a wider bitmap allocates
	occ := occBuf[:]
	if b.Stride > len(occ) {
		occ = make([]uint64, b.Stride)
	}
	for y := 0; y < b.H; y++ {
		row := b.Row(y)
		for k, w := range row {
			occ[k] |= w
		}
	}
	out := buf[:0]
	inRun := false
	runStart := 0
	gap := 0
	for x := 0; x <= b.W; x++ {
		filled := x < b.W && occ[x>>6]>>(uint(x)&63)&1 != 0
		switch {
		case filled && !inRun:
			inRun = true
			runStart = x
			gap = 0
		case !filled && inRun:
			gap++
			if gap >= minGap || x == b.W {
				out = append(out, Rect{X0: runStart, Y0: 0, X1: x - gap + 1, Y1: b.H})
				inRun = false
			}
		case filled && inRun:
			gap = 0
		}
	}
	if inRun {
		out = append(out, Rect{X0: runStart, Y0: 0, X1: b.W, Y1: b.H})
	}
	return out
}
