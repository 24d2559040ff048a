package ocr

import (
	"math/rand"
	"strings"
	"testing"

	"tero/internal/font"
	"tero/internal/imaging"
)

// render draws text on a background-level canvas with the given fg level.
func render(text string, bg, fg uint8, scale int) *imaging.Gray {
	w := font.TextWidth(text, scale) + 8
	h := font.TextHeight(scale) + 8
	img := imaging.NewFilled(w, h, bg)
	font.Draw(img, 4, 4, text, scale, fg)
	return img
}

func digitsOf(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= '0' && r <= '9' {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func TestAllEnginesReadCleanText(t *testing.T) {
	for _, e := range Engines() {
		for _, text := range []string{"42", "128 ms", "7", "345", "ping: 99"} {
			img := render(text, 20, 230, 1)
			got := e.Recognize(img)
			if digitsOf(got.Text) != digitsOf(text) {
				t.Errorf("%s(%q) = %q (digits %q, want %q)",
					e.Name(), text, got.Text, digitsOf(got.Text), digitsOf(text))
			}
		}
	}
}

func TestEnginesReadScaledText(t *testing.T) {
	for _, e := range Engines() {
		img := render("67 ms", 10, 240, 2)
		got := e.Recognize(img)
		if digitsOf(got.Text) != "67" {
			t.Errorf("%s scale-2 = %q", e.Name(), got.Text)
		}
	}
}

func TestTesseraMissesLowContrast(t *testing.T) {
	// Text at level 100 on background 60: below Tessera's fixed threshold,
	// so it must extract nothing — the "font color too close to background"
	// failure (Fig. 6b). EasyScan's adaptive threshold must still read it.
	img := render("73 ms", 60, 100, 1)
	tes := NewTessera().Recognize(img)
	if digitsOf(tes.Text) != "" {
		t.Fatalf("tessera should miss low-contrast text, got %q", tes.Text)
	}
	easy := NewEasyScan().Recognize(img)
	if digitsOf(easy.Text) != "73" {
		t.Fatalf("easyscan should read low-contrast text, got %q", easy.Text)
	}
}

func TestDarkTextOnLightBackground(t *testing.T) {
	img := render("55", 220, 15, 1)
	easy := NewEasyScan().Recognize(img)
	if digitsOf(easy.Text) != "55" {
		t.Fatalf("polarity inversion failed: %q", easy.Text)
	}
	pad := NewPaddleRead().Recognize(img)
	if digitsOf(pad.Text) != "55" {
		t.Fatalf("paddleread polarity inversion failed: %q", pad.Text)
	}
}

func TestOcclusionCausesDigitDrop(t *testing.T) {
	// Cover the leading digit with a menu-like rectangle: engines should
	// read only the remaining digits — the digit-drop error (§3.2.1).
	img := render("41 ms", 20, 230, 1)
	img.FillRect(imaging.Rect{X0: 0, Y0: 0, X1: 4 + font.AdvanceX, Y1: img.H}, 20)
	for _, e := range Engines() {
		got := digitsOf(e.Recognize(img).Text)
		if got != "1" {
			t.Errorf("%s occluded = %q, want 1", e.Name(), got)
		}
	}
}

func TestNoiseCausesDisagreement(t *testing.T) {
	// Under heavy noise the three engines must not all fail identically:
	// across a noisy corpus, at least one image must produce disagreeing
	// non-empty outputs (this drives the 2-of-3 combiner).
	r := rand.New(rand.NewSource(11))
	disagree := 0
	total := 0
	for i := 0; i < 80; i++ {
		img := render("48 ms", 20, 200, 1).SaltPepper(0.06, r.Float64)
		outs := make(map[string]bool)
		for _, e := range Engines() {
			outs[digitsOf(e.Recognize(img).Text)] = true
		}
		total++
		if len(outs) > 1 {
			disagree++
		}
	}
	if disagree == 0 {
		t.Fatalf("engines never disagreed across %d noisy images", total)
	}
}

func TestEnginesStayQuietOnBlank(t *testing.T) {
	blank := imaging.NewFilled(60, 20, 30)
	for _, e := range Engines() {
		if got := e.Recognize(blank).Text; got != "" {
			t.Errorf("%s on blank = %q", e.Name(), got)
		}
	}
}

func TestEnginesToleratesMildNoise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	img := render("97 ms", 25, 225, 1).AddNoise(12, r.Float64)
	correct := 0
	for _, e := range Engines() {
		if digitsOf(e.Recognize(img).Text) == "97" {
			correct++
		}
	}
	if correct < 2 {
		t.Fatalf("only %d/3 engines read mildly noisy text", correct)
	}
}

func TestCharBoxesOrdered(t *testing.T) {
	img := render("123", 20, 230, 1)
	for _, e := range Engines() {
		res := e.Recognize(img)
		for i := 1; i < len(res.Chars); i++ {
			if res.Chars[i].Box.X0 < res.Chars[i-1].Box.X0 {
				t.Errorf("%s: character boxes out of order", e.Name())
			}
		}
	}
}

func TestNormalizeCell(t *testing.T) {
	if normalizeCell(imaging.New(5, 5)) != nil {
		t.Fatal("empty cell should normalize to nil")
	}
	g := font.RenderGlyph('8')
	n := normalizeCell(g)
	if n == nil || n.W != CellW || n.H != CellH {
		t.Fatal("bad normalized size")
	}
}

func TestMatchCellPerfect(t *testing.T) {
	for _, r := range []rune{'0', '5', '9', 'm'} {
		glyph := font.RenderGlyph(r)
		got, d := matchCell(normalizeCell(glyph), 0)
		if got != r || d != 0 {
			t.Errorf("matchCell(%q) = %q dist %d", r, got, d)
		}
		bin := glyph.PackGE(1)
		box, _ := bin.TightBoxCountIn(imaging.Rect{X1: bin.W, Y1: bin.H})
		got, d = matchCellPacked(normalizeCellPacked(bin, box, 0), 0)
		if got != r || d != 0 {
			t.Errorf("matchCellPacked(%q) = %q dist %d", r, got, d)
		}
	}
}

func TestMergeOverlapping(t *testing.T) {
	in := []imaging.Rect{{X0: 0, X1: 5}, {X0: 3, X1: 8}, {X0: 10, X1: 12}}
	out := mergeOverlapping(in)
	if len(out) != 2 || out[0].X1 != 8 || out[1].X0 != 10 {
		t.Fatalf("merge = %+v", out)
	}
	if mergeOverlapping(nil) != nil {
		t.Fatal("nil merge")
	}
}
