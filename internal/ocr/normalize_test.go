package ocr

import (
	"math/rand"
	"sync"
	"testing"

	"tero/internal/imaging"
)

// normalizeCellFloat is normalizeCellPacked as it stood before the truth
// tables: the box unpacked to bytes and the four-tap bilinear evaluated in
// floating point at every cell position — ScaleBilinear's expression
// followed by Threshold(128), sampling bits as 0/255, with the explicit
// roundings ScaleBilinear has now. Kept as the oracle the tabulated
// normaliser is held to, geometry by geometry.
func normalizeCellFloat(bin *imaging.Bitmap, box imaging.Rect) packedCell {
	var cell packedCell
	tw, th := box.Width(), box.Height()
	sub := imaging.New(tw, th)
	for i := range sub.Pix {
		if bin.Get(box.X0+i%tw, box.Y0+i/tw) {
			sub.Pix[i] = 255
		}
	}
	xRatio := float64(tw-1) / float64(max(CellW-1, 1))
	yRatio := float64(th-1) / float64(max(CellH-1, 1))
	var sx0, sx1 [CellW]int
	var sdx [CellW]float64
	for x := 0; x < CellW; x++ {
		fx := float64(float64(x) * xRatio)
		sx0[x] = int(fx)
		sdx[x] = fx - float64(sx0[x])
		sx1[x] = min(sx0[x]+1, tw-1)
	}
	for y := 0; y < CellH; y++ {
		fy := float64(float64(y) * yRatio)
		y0 := int(fy)
		dy := fy - float64(y0)
		y1 := min(y0+1, th-1)
		row0 := sub.Pix[y0*tw : (y0+1)*tw]
		row1 := sub.Pix[y1*tw : (y1+1)*tw]
		for x := 0; x < CellW; x++ {
			dx := sdx[x]
			v := float64(float64(row0[sx0[x]])*(1-dx)*(1-dy)) +
				float64(float64(row0[sx1[x]])*dx*(1-dy)) +
				float64(float64(row1[sx0[x]])*(1-dx)*dy) +
				float64(float64(row1[sx1[x]])*dx*dy)
			if uint8(v+0.5) >= 128 {
				cell.setBit(x, y)
			}
		}
	}
	imaging.Recycle(sub)
	return cell
}

func randomBitmap(r *rand.Rand, w, h int) *imaging.Bitmap {
	b := imaging.NewBitmap(w, h)
	density := 1 + r.Intn(4) // one pixel in 2..5 set
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.Set(x, y, r.Intn(density+1) == 0)
		}
	}
	return b
}

// TestNormalizeCellTableMatchesFloat: for every box size the memo holds,
// 1..64 × 1..64, on random bits, the tabulated cell is the float loop's —
// with the box at the bitmap's origin, inside one word, and straddling the
// boundary between two (where a sample's word index changes mid-row). The
// second round of every size reads the memoised table, the first builds it.
func TestNormalizeCellTableMatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	bin := randomBitmap(r, 200, 80)
	for tw := 1; tw <= cellTableMemoDim; tw++ {
		for th := 1; th <= cellTableMemoDim; th++ {
			for _, x0 := range []int{0, 3, 64 - (tw+1)/2, 128 - 1} {
				y0 := r.Intn(bin.H - th + 1)
				box := imaging.Rect{X0: x0, Y0: y0, X1: x0 + tw, Y1: y0 + th}
				if got, want := normalizeCellPacked(bin, box, 0), normalizeCellFloat(bin, box); got != want {
					t.Fatalf("%dx%d box at (%d,%d): table cell %x, float cell %x", tw, th, x0, y0, got, want)
				}
			}
		}
	}
}

// TestNormalizeCellBeyondMemo: a box larger than the memo on either side is
// normalised through a table built for the call, equal to the float loop,
// and leaves the memo as it was.
func TestNormalizeCellBeyondMemo(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	bin := randomBitmap(r, 400, 150)
	for _, sz := range []struct{ tw, th int }{{65, 14}, {10, 65}, {182, 30}, {364, 120}, {129, 7}} {
		for _, x0 := range []int{0, 5, 30} {
			box := imaging.Rect{X0: x0, Y0: 9, X1: x0 + sz.tw, Y1: 9 + sz.th}
			if got, want := normalizeCellPacked(bin, box, 0), normalizeCellFloat(bin, box); got != want {
				t.Fatalf("%dx%d box at x=%d: table cell %x, float cell %x", sz.tw, sz.th, x0, got, want)
			}
		}
	}
}

// TestCellTableFirstTouchIsRaceFree: goroutines that meet a box size nobody
// has normalised yet each get the cell the float loop computes. Run under
// -race (check.sh does): the memo slot is the only state they share.
func TestCellTableFirstTouchIsRaceFree(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	bin := randomBitmap(r, 120, 70)
	for round, sz := range []struct{ tw, th int }{{37, 53}, {9, 61}, {64, 64}} {
		cellTables[(sz.tw-1)*cellTableMemoDim+sz.th-1].Store(nil) // untouched, whatever ran before
		box := imaging.Rect{X0: 40, Y0: 2, X1: 40 + sz.tw, Y1: 2 + sz.th}
		want := normalizeCellFloat(bin, box)
		const goroutines = 8
		cells := make([]packedCell, goroutines)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				cells[g] = normalizeCellPacked(bin, box, 0)
			}(g)
		}
		start.Done()
		done.Wait()
		for g, c := range cells {
			if c != want {
				t.Errorf("round %d goroutine %d: cell %x, want %x", round, g, c, want)
			}
		}
	}
}

// TestNormalizeCellShiftReadsTheDoubledBitmap: with shift 1 the cell of a
// box is the float loop's cell of the doubled box on the bitmap scaled 2×
// (every bit a 2×2 block) — PaddleRead's coordinate shift — for every box
// whose doubled size the memo holds, with the box inside one word of either
// bitmap and across two, and for a few doubled sizes beyond the memo.
func TestNormalizeCellShiftReadsTheDoubledBitmap(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	small := randomBitmap(r, 100, 40)
	doubled := imaging.NewBitmap(2*small.W, 2*small.H)
	for y := 0; y < doubled.H; y++ {
		for x := 0; x < doubled.W; x++ {
			doubled.Set(x, y, small.Get(x>>1, y>>1))
		}
	}
	check := func(tw, th, x0 int) {
		y0 := r.Intn(small.H - th + 1)
		box := imaging.Rect{X0: x0, Y0: y0, X1: x0 + tw, Y1: y0 + th}
		dbl := imaging.Rect{X0: 2 * box.X0, Y0: 2 * box.Y0, X1: 2 * box.X1, Y1: 2 * box.Y1}
		if got, want := normalizeCellPacked(small, box, 1), normalizeCellFloat(doubled, dbl); got != want {
			t.Fatalf("%dx%d box at (%d,%d): shifted cell %x, doubled bitmap's float cell %x", tw, th, x0, y0, got, want)
		}
	}
	for tw := 1; tw <= cellTableMemoDim/2; tw++ {
		for th := 1; th <= cellTableMemoDim/2; th++ {
			for _, x0 := range []int{0, 3, 32 - (tw+1)/2, 63} {
				check(tw, th, x0)
			}
		}
	}
	for _, sz := range []struct{ tw, th int }{{33, 7}, {91, 15}, {12, 40}} {
		check(sz.tw, sz.th, 5)
	}
}
