package ocr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tero/internal/font"
	"tero/internal/games"
	"tero/internal/imaging"
)

// pageCase is one image the page tests read.
type pageCase struct {
	name string
	img  *imaging.Gray
}

// pageCorpus renders every game's latency display on a thumbnail — clean,
// with salt-and-pepper and with uniform noise, in low contrast, in
// inverted polarity, and blank or full-range random instead — and returns
// each UI crop both raw and pre-processed the way the extractor feeds the
// engines (2× up-scale and σ 0.5 blur).
func pageCorpus(r *rand.Rand) []pageCase {
	var out []pageCase
	add := func(name string, thumb *imaging.Gray, g *games.Game) {
		crop := thumb.Crop(g.UI.CropRect(4))
		out = append(out, pageCase{name + " raw", crop}, pageCase{name + " pre", crop.ScaleNearestBlur(2, 0.5)})
	}
	display := func(g *games.Game, ms int, bg, fg uint8) *imaging.Gray {
		thumb := imaging.NewFilled(games.ThumbW, games.ThumbH, bg)
		text := g.UI.Format(ms)
		w, h := font.TextWidth(text, g.UI.Scale), font.TextHeight(g.UI.Scale)
		x, y := g.UI.TextOrigin(w, h)
		font.Draw(thumb, x, y, text, g.UI.Scale, fg)
		return thumb
	}
	for _, g := range games.All {
		for _, ms := range []int{7, 64, 173} {
			name := fmt.Sprintf("%s %d", g.Slug, ms)
			add(name+" clean", display(g, ms, uint8(18+r.Intn(30)), uint8(225+r.Intn(30))), g)
			add(name+" salt", display(g, ms, 30, 235).SaltPepper(0.03, r.Float64), g)
			add(name+" noise", display(g, ms, 40, 220).AddNoise(20+r.Intn(30), r.Float64), g)
			bg := uint8(30 + r.Intn(150))
			add(name+" lowc", display(g, ms, bg, bg+uint8(9+r.Intn(11))), g)
			add(name+" inverted", display(g, ms, uint8(200+r.Intn(40)), uint8(10+r.Intn(40))), g)
			add(name+" inverted noise", display(g, ms, 220, 30).AddNoise(25, r.Float64), g)
		}
		add(g.Slug+" blank", imaging.NewFilled(games.ThumbW, games.ThumbH, uint8(r.Intn(256))), g)
		random := imaging.New(games.ThumbW, games.ThumbH)
		for i := range random.Pix {
			random.Pix[i] = uint8(r.Intn(256))
		}
		add(g.Slug+" random", random, g)
	}
	return out
}

// TestPageMatchesSeparateReads holds the shared page to the engines read
// alone: on every game's rendered crops, the three engines read through one
// page — in three orders, so that each engine's threshold meets the others'
// bitmaps — return what each engine's Recognize returns on the image: the
// same Text, and per character the same rune, Dist and Box. The corpus must
// hold pages that pack one bitmap for all three engines and pages that need
// two, or neither reuse nor its refusal was tried.
func TestPageMatchesSeparateReads(t *testing.T) {
	shared, alone := Engines(), Engines()
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}}
	var byPacked [4]int
	for _, c := range pageCorpus(rand.New(rand.NewSource(47))) {
		want := make([]Result, len(alone))
		for i, e := range alone {
			want[i] = e.Recognize(c.img)
		}
		for _, order := range orders {
			pg := NewPage(c.img)
			for _, i := range order {
				if got := pg.Read(shared[i]); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s, order %v: %s read off the page %+v, alone %+v",
						c.name, order, shared[i].Name(), got, want[i])
				}
			}
			byPacked[pg.packed]++
			pg.Release()
		}
	}
	if byPacked[1] == 0 || byPacked[2] == 0 {
		t.Fatalf("pages by bitmaps packed: %v; the corpus needs pages with one and with two", byPacked)
	}
	t.Logf("pages by bitmaps packed (0-3): %v", byPacked)
}

// packWith binarizes img by t directly, with no page.
func packWith(img *imaging.Gray, t threshold) *imaging.Bitmap {
	if t.below {
		return img.PackLE(t.level)
	}
	return img.PackGE(t.level)
}

// TestPageReusesExactlyWhenPixelsAgree holds the reuse rule to brute force:
// on seeded images whose histograms are a few occupied levels with empty
// runs between them (or, now and then, all 256), a page asked for a second
// threshold reuses its first bitmap exactly when packing both thresholds
// gives the same words, and the bitmap it returns is the second
// threshold's. Thresholds are drawn at, just below and just above the
// occupied levels, in both polarities, and at the extremes.
func TestPageReusesExactlyWhenPixelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	reused, packed := 0, 0
	for i := 0; i < 3000; i++ {
		var levels []int
		if i%50 == 0 {
			for v := 0; v < 256; v++ {
				levels = append(levels, v)
			}
		} else {
			for k := 1 + r.Intn(5); k > 0; k-- {
				v := r.Intn(256)
				levels = append(levels, v)
				if r.Intn(3) == 0 && v < 255 {
					levels = append(levels, v+1) // two adjacent occupied levels
				}
			}
		}
		img := imaging.New(1+r.Intn(150), 1+r.Intn(12))
		for j := range img.Pix {
			img.Pix[j] = uint8(levels[r.Intn(len(levels))])
		}
		var cands []threshold
		for _, v := range append(levels, 0, 255) {
			for l := max(v-1, 0); l <= min(v+1, 255); l++ {
				cands = append(cands, threshold{level: uint8(l)}, threshold{level: uint8(l), below: true})
			}
		}
		for k := 0; k < 20; k++ {
			a, b := cands[r.Intn(len(cands))], cands[r.Intn(len(cands))]
			wa, wb := packWith(img, a), packWith(img, b)
			same := slices.Equal(wa.Words, wb.Words)
			pg := NewPage(img)
			pg.bitmap(a)
			got := pg.bitmap(b)
			if (pg.packed == 1) != same {
				t.Fatalf("%dx%d image, levels %v: %+v then %+v packed %d bitmaps; the two packings are equal: %v",
					img.W, img.H, levels, a, b, pg.packed, same)
			}
			if !slices.Equal(got.bin.Words, wb.Words) {
				t.Fatalf("%dx%d image, levels %v: %+v then %+v: the page's bitmap is not %+v's",
					img.W, img.H, levels, a, b, b)
			}
			if same {
				reused++
			} else {
				packed++
			}
			pg.Release()
			imaging.RecycleBitmap(wa)
			imaging.RecycleBitmap(wb)
		}
	}
	if reused == 0 || packed == 0 {
		t.Fatalf("%d pairs reused and %d packed twice: the draw tries only one side", reused, packed)
	}
}
