package font

import (
	"testing"

	"tero/internal/imaging"
)

func TestGlyphCoverage(t *testing.T) {
	needed := "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ mspinglatencyf:.%-/"
	have := map[rune]bool{}
	for _, r := range Runes() {
		have[r] = true
	}
	for _, r := range needed {
		if !have[r] {
			t.Errorf("missing glyph %q", r)
		}
	}
	if have['§'] {
		t.Error("unexpected glyph for §")
	}
	if len(Runes()) < 50 {
		t.Errorf("too few glyphs: %d", len(Runes()))
	}
}

func TestTextMetrics(t *testing.T) {
	if TextWidth("", 1) != 0 {
		t.Fatal("empty width")
	}
	if got := TextWidth("12", 1); got != 2*AdvanceX-1 {
		t.Fatalf("width = %d", got)
	}
	if got := TextWidth("1", 3); got != (AdvanceX-1)*3 {
		t.Fatalf("scaled width = %d", got)
	}
	if TextHeight(2) != 14 {
		t.Fatal("height")
	}
	if TextHeight(0) != GlyphH {
		t.Fatal("scale clamped to 1")
	}
}

func TestDrawRendersInk(t *testing.T) {
	img := imaging.New(40, 10)
	Draw(img, 1, 1, "42", 1, 255)
	box := img.TightBox()
	if box.Empty() {
		t.Fatal("nothing drawn")
	}
	if box.X0 < 1 || box.Y0 < 1 {
		t.Fatalf("drawn outside anchor: %+v", box)
	}
	// Two characters → two column segments separated by the advance gap.
	segs := img.SegmentColumns(1)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
}

func TestDrawScale(t *testing.T) {
	small := imaging.New(10, 10)
	Draw(small, 0, 0, "1", 1, 255)
	big := imaging.New(20, 20)
	Draw(big, 0, 0, "1", 2, 255)
	var inkSmall, inkBig int
	for _, p := range small.Pix {
		if p != 0 {
			inkSmall++
		}
	}
	for _, p := range big.Pix {
		if p != 0 {
			inkBig++
		}
	}
	if inkBig != 4*inkSmall {
		t.Fatalf("ink %d vs %d: scale 2 should quadruple ink", inkBig, inkSmall)
	}
}

func TestDrawSkipsUnsupported(t *testing.T) {
	img := imaging.New(40, 10)
	Draw(img, 0, 0, "4§2", 1, 255) // middle rune unsupported: acts as a space
	segs := img.SegmentColumns(2)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	// The two digits should be 2 advances apart.
	gap := segs[1].X0 - segs[0].X0
	if gap != 2*AdvanceX {
		t.Fatalf("gap = %d, want %d", gap, 2*AdvanceX)
	}
}

func TestRenderGlyphMatchesDraw(t *testing.T) {
	for _, r := range []rune{'0', '8', 'B', 'm', 's'} {
		tpl := RenderGlyph(r)
		img := imaging.New(GlyphW, GlyphH)
		Draw(img, 0, 0, string(r), 1, 255)
		for i := range tpl.Pix {
			if tpl.Pix[i] != img.Pix[i] {
				t.Fatalf("glyph %q mismatch at %d", r, i)
			}
		}
	}
}

func TestConfusablePairsAreClose(t *testing.T) {
	// The font is designed so that classic OCR confusions are plausible:
	// hamming distance between 8 and B, 0 and O, 5 and S must be small
	// (a few pixels), while e.g. 1 vs 8 must be large.
	dist := func(a, b rune) int {
		ga := RenderGlyph(a)
		gb := RenderGlyph(b)
		d := 0
		for i := range ga.Pix {
			if ga.Pix[i] != gb.Pix[i] {
				d++
			}
		}
		return d
	}
	close := [][2]rune{{'8', 'B'}, {'0', 'O'}, {'5', 'S'}, {'1', 'l'}}
	for _, pair := range close {
		if d := dist(pair[0], pair[1]); d > 8 {
			t.Errorf("glyphs %q/%q too far apart: %d", pair[0], pair[1], d)
		}
	}
	if d := dist('1', '8'); d <= 8 {
		t.Errorf("glyphs 1/8 unexpectedly close: %d", d)
	}
}
