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

// spread2 doubles each of the 32 input bits: bit i maps to bits 2i and
// 2i+1 (the bit-level nearest-neighbour 2× upscale).
func spread2(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x | x<<1
}

// Upscale2x returns the bitmap scaled 2× with nearest-neighbour sampling:
// every bit is spread to a 2×2 block. Because nearest-neighbour scaling
// commutes with per-pixel thresholding, PackGE(t).Upscale2x() equals
// ScaleNearest(2).Threshold(t) without materializing the upscaled image.
func (b *Bitmap) Upscale2x() *Bitmap {
	out := NewBitmap(b.W*2, b.H*2)
	for y := 0; y < b.H; y++ {
		src := b.Row(y)
		d0 := out.Row(2 * y)
		for k, w := range src {
			if lo := spread2(uint32(w)); 2*k < len(d0) {
				d0[2*k] = lo
			}
			if hi := spread2(uint32(w >> 32)); 2*k+1 < len(d0) {
				d0[2*k+1] = hi
			}
		}
		copy(out.Row(2*y+1), d0)
	}
	return out
}

// nextSet returns the first column >= x with a set bit in row, or b.W.
func (b *Bitmap) nextSet(row []uint64, x int) int {
	if x >= b.W {
		return b.W
	}
	k := x >> 6
	w := row[k] &^ ((uint64(1) << (uint(x) & 63)) - 1)
	for {
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w) // padding bits are zero
		}
		k++
		if k >= len(row) {
			return b.W
		}
		w = row[k]
	}
}

// nextClear returns the first column >= x with a clear bit in row, or b.W.
func (b *Bitmap) nextClear(row []uint64, x int) int {
	if x >= b.W {
		return b.W
	}
	k := x >> 6
	w := ^row[k] &^ ((uint64(1) << (uint(x) & 63)) - 1)
	for {
		if w != 0 {
			p := k<<6 + bits.TrailingZeros64(w)
			if p > b.W {
				p = b.W
			}
			return p
		}
		k++
		if k >= len(row) {
			return b.W
		}
		w = ^row[k]
	}
}

// ConnectedComponents labels 4-connected foreground regions using run-based
// union-find: horizontal runs are extracted word-wise per row, runs in
// adjacent rows are merged when their column ranges overlap, and the
// components come out in exactly the scalar kernel's order (discovery order
// of the topmost-leftmost pixel, then sorted left-to-right). They are
// written over buf when it has the capacity (nil for a fresh slice).
func (b *Bitmap) ConnectedComponents(buf []Component) []Component {
	if b.W == 0 || b.H == 0 {
		return buf[:0]
	}
	// Count runs exactly (a run starts at a set bit whose left neighbour is
	// clear) so every slice below is allocated once, full-size.
	nRuns := 0
	for y := 0; y < b.H; y++ {
		var carry uint64
		for _, w := range b.Row(y) {
			nRuns += bits.OnesCount64(w &^ (w<<1 | carry))
			carry = w >> 63
		}
	}
	if nRuns == 0 {
		return buf[:0]
	}
	sc := getCCScratch(nRuns, b.H+1)
	defer ccPool.Put(sc)
	runs, rowStart := sc.runs[:0], sc.rowStart
	for y := 0; y < b.H; y++ {
		rowStart[y] = int32(len(runs))
		row := b.Row(y)
		x := b.nextSet(row, 0)
		for x < b.W {
			e := b.nextClear(row, x)
			runs = append(runs, brun{int32(y), int32(x), int32(e)})
			x = b.nextSet(row, e)
		}
	}
	rowStart[b.H] = int32(len(runs))

	// Union-find over run indices. Unions keep the smallest run index as
	// the root, so a component's root is its first run in scan order —
	// the same discovery order as the scalar flood fill's first pixel.
	parent, compOf := sc.uf[:len(runs)], sc.uf[len(runs):]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for y := 1; y < b.H; y++ {
		i, iEnd := rowStart[y-1], rowStart[y]
		j, jEnd := rowStart[y], rowStart[y+1]
		for i < iEnd && j < jEnd {
			a, c := runs[i], runs[j]
			if a.x0 < c.x1 && c.x0 < a.x1 {
				ra, rc := find(i), find(j)
				if ra < rc {
					parent[rc] = ra
				} else if rc < ra {
					parent[ra] = rc
				}
			}
			if a.x1 < c.x1 {
				i++
			} else {
				j++
			}
		}
	}

	// Aggregate per root in run order; first run of a component appends it.
	for i := range compOf {
		compOf[i] = -1
	}
	comps := buf[:0]
	for ri := range runs {
		root := find(int32(ri))
		ci := compOf[root]
		if ci < 0 {
			ci = int32(len(comps))
			compOf[root] = ci
			comps = append(comps, Component{Box: Rect{X0: b.W, Y0: b.H}})
		}
		r := runs[ri]
		c := &comps[ci]
		c.Area += int(r.x1 - r.x0)
		if int(r.x0) < c.Box.X0 {
			c.Box.X0 = int(r.x0)
		}
		if int(r.x1) > c.Box.X1 {
			c.Box.X1 = int(r.x1)
		}
		if int(r.y) < c.Box.Y0 {
			c.Box.Y0 = int(r.y)
		}
		if int(r.y)+1 > c.Box.Y1 {
			c.Box.Y1 = int(r.y) + 1
		}
	}
	sortComponents(comps)
	return comps
}
