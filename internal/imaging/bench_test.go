package imaging

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchImage builds a text-like binary scene: sparse glyph-sized blobs on a
// dark background, the shape the OCR kernels actually see.
func benchImage(w, h int) *Gray {
	r := rand.New(rand.NewSource(int64(w*1000 + h)))
	g := New(w, h)
	for i := 0; i < w*h/160; i++ {
		x, y := r.Intn(w), r.Intn(h)
		g.FillRect(Rect{X0: x, Y0: y, X1: x + 2 + r.Intn(8), Y1: y + 4 + r.Intn(10)}, uint8(160+r.Intn(96)))
	}
	return g
}

var benchSizes = []struct{ w, h int }{{160, 48}, {640, 360}}

// The per-kernel packed-vs-scalar microbenchmarks. Each pair runs the scalar
// reference and the word-wise kernel on the same input so the ratio of
// the two ns/op figures is directly the packing speedup.

func BenchmarkThreshold(b *testing.B) {
	for _, sz := range benchSizes {
		g := benchImage(sz.w, sz.h)
		b.Run(fmt.Sprintf("%dx%d/scalar", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Recycle(g.Threshold(140))
			}
		})
		b.Run(fmt.Sprintf("%dx%d/packed", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RecycleBitmap(g.PackGE(140))
			}
		})
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	for _, sz := range benchSizes {
		g := benchImage(sz.w, sz.h)
		bin := g.Threshold(140)
		pb := g.PackGE(140)
		b.Run(fmt.Sprintf("%dx%d/scalar", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bin.ConnectedComponents()
			}
		})
		b.Run(fmt.Sprintf("%dx%d/packed", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = pb.ConnectedComponents(nil)
			}
		})
	}
}

func BenchmarkUpscale2x(b *testing.B) {
	for _, sz := range benchSizes {
		g := benchImage(sz.w, sz.h)
		bin := g.Threshold(140)
		pb := g.PackGE(140)
		b.Run(fmt.Sprintf("%dx%d/scalar", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Recycle(bin.ScaleNearest(2))
			}
		})
		b.Run(fmt.Sprintf("%dx%d/packed", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RecycleBitmap(pb.Upscale2x())
			}
		})
	}
}

// BenchmarkScaleNearest compares the seed per-pixel upscaler (scalar) with
// the row-expand + row-copy / SWAR factor-2 rework (packed) on grayscale
// input; outputs are pinned bit-identical by FuzzScaleNearest.
func BenchmarkScaleNearest(b *testing.B) {
	for _, sz := range benchSizes {
		g := benchImage(sz.w, sz.h)
		for _, factor := range []int{2, 3} {
			b.Run(fmt.Sprintf("%dx%d/x%d/scalar", sz.w, sz.h, factor), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Recycle(scaleNearestRef(g, factor))
				}
			})
			b.Run(fmt.Sprintf("%dx%d/x%d/packed", sz.w, sz.h, factor), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Recycle(g.ScaleNearest(factor))
				}
			})
		}
	}
}

func BenchmarkGaussianBlur(b *testing.B) {
	for _, sz := range benchSizes {
		g := benchImage(sz.w, sz.h)
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Recycle(g.GaussianBlur(0.5))
			}
		})
	}
}

// BenchmarkScaleNearestBlur is the extractor's pre-processing on the
// narrowest and the widest UI crop: the replicating blur against the
// up-scale-then-blur it replaced (which still pays for the up-scaled image
// and a second horizontal pass over its duplicated rows).
func BenchmarkScaleNearestBlur(b *testing.B) {
	for _, w := range []int{43, 91} {
		g := benchImage(w, 15)
		b.Run(fmt.Sprintf("%dx15/replicating", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Recycle(g.ScaleNearestBlur(2, 0.5))
			}
		})
		b.Run(fmt.Sprintf("%dx15/composed", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				up := g.ScaleNearest(2)
				Recycle(up.GaussianBlur(0.5))
				Recycle(up)
			}
		})
	}
}

var histSink [256]int

// BenchmarkHistogram256 counts a pre-processed UI crop that is one flat
// level — the case where a single-array count serialises on every pixel —
// and one with text-like blobs on it.
func BenchmarkHistogram256(b *testing.B) {
	for name, g := range map[string]*Gray{"flat": NewFilled(182, 30, 20), "blobs": benchImage(182, 30)} {
		b.Run("182x30/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				histSink = g.Histogram256()
			}
		})
	}
}
