// Package imaging implements the grayscale image type and the classic
// image-processing operations Tero's image-processing module applies before
// OCR (App. E): cropping, up-scaling, Gaussian blur, global and Otsu
// thresholding, plus connected-component analysis used by the OCR engines
// for character segmentation. The binary kernels exist twice: bit-packed on
// Bitmap, which is what the engines run, and byte-per-pixel on Gray, the
// reference TestBitmapOpsMatchGray and internal/ocr's scalar oracle hold the
// packed ones to.
package imaging

import "fmt"

// Gray is an 8-bit grayscale image. Pixels are stored row-major.
type Gray struct {
	W, H int
	Pix  []uint8
}

// New returns a black image of the given size. Storage may come from the
// package's scratch pool (see Recycle); a fresh image is always zeroed.
func New(w, h int) *Gray {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("imaging: invalid size %dx%d", w, h))
	}
	return newPooled(w, h)
}

// NewFilled returns an image of the given size filled with level v.
func NewFilled(w, h int, v uint8) *Gray {
	img := New(w, h)
	for i := range img.Pix {
		img.Pix[i] = v
	}
	return img
}

// At returns the pixel at (x, y); out-of-bounds reads return 0.
func (g *Gray) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy of the image.
func (g *Gray) Clone() *Gray {
	out := New(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Rect is an axis-aligned rectangle with inclusive min and exclusive max.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Width returns the rectangle width.
func (r Rect) Width() int { return r.X1 - r.X0 }

// Height returns the rectangle height.
func (r Rect) Height() int { return r.Y1 - r.Y0 }

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Clamp restricts the rectangle to the bounds of an image of size w×h.
func (r Rect) Clamp(w, h int) Rect {
	if r.X0 < 0 {
		r.X0 = 0
	}
	if r.Y0 < 0 {
		r.Y0 = 0
	}
	if r.X1 > w {
		r.X1 = w
	}
	if r.Y1 > h {
		r.Y1 = h
	}
	return r
}

// Crop returns a copy of the sub-image described by r (clamped to bounds).
func (g *Gray) Crop(r Rect) *Gray {
	r = r.Clamp(g.W, g.H)
	if r.Empty() {
		return New(0, 0)
	}
	out := New(r.Width(), r.Height())
	for y := 0; y < out.H; y++ {
		srcOff := (r.Y0+y)*g.W + r.X0
		copy(out.Pix[y*out.W:(y+1)*out.W], g.Pix[srcOff:srcOff+out.W])
	}
	return out
}

// FillRect paints the rectangle with level v.
func (g *Gray) FillRect(r Rect, v uint8) {
	r = r.Clamp(g.W, g.H)
	for y := r.Y0; y < r.Y1; y++ {
		row := g.Pix[y*g.W+r.X0 : y*g.W+r.X1]
		for i := range row {
			row[i] = v
		}
	}
}

// Histogram256 returns the 256-bin intensity histogram.
//
// It counts into four lanes and sums them at the end. With one array every
// increment whose level equals the previous pixel's waits for that store to
// forward to its load, and a UI crop is mostly flat background; four arrays
// are four independent chains. A uint32 lane holds a quarter of any image
// under 16 Gi pixels.
func (g *Gray) Histogram256() [256]int {
	var l0, l1, l2, l3 [256]uint32
	pix := g.Pix
	i := 0
	for ; i+4 <= len(pix); i += 4 {
		q := pix[i : i+4 : i+4]
		l0[q[0]]++
		l1[q[1]]++
		l2[q[2]]++
		l3[q[3]]++
	}
	for ; i < len(pix); i++ {
		l0[pix[i]]++
	}
	var h [256]int
	for v := range h {
		h[v] = int(l0[v]) + int(l1[v]) + int(l2[v]) + int(l3[v])
	}
	return h
}

// Invert flips every pixel (255 - v) in place and returns the image.
func (g *Gray) Invert() *Gray {
	for i, p := range g.Pix {
		g.Pix[i] = 255 - p
	}
	return g
}
