package ocr

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tero/internal/imaging"
	"tero/internal/obs"
	"tero/internal/worldsim"
)

// memoOf returns an engine's glyph memo.
func memoOf(e Engine) *glyphMemo {
	switch e := e.(type) {
	case *Tessera:
		return &e.memo
	case *EasyScan:
		return &e.memo
	case *PaddleRead:
		return &e.memo
	}
	panic("no glyph memo in " + e.Name())
}

// usedSlots lists the slots that hold an entry.
func (m *glyphMemo) usedSlots() []int {
	var out []int
	for i := range m.slots {
		if m.slots[i].Load() != nil {
			out = append(out, i)
		}
	}
	return out
}

// forget empties the given slots.
func (m *glyphMemo) forget(slots []int) {
	for _, i := range slots {
		m.slots[i].Store(nil)
	}
}

// sampling is how an engine classifies a glyph box: its shift and digit bias.
type sampling struct {
	shift uint
	bias  int
}

// corpusCrops returns the pre-processed latency crops of n rendered corpus
// thumbnails (the images the extractor's first pass feeds the engines).
func corpusCrops(tb testing.TB, n int) []*imaging.Gray {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	opt := worldsim.DefaultRenderOptions()
	var out []*imaging.Gray
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for idx := 0; idx < 3; idx++ {
				img, _ := worldsim.RenderDeterministic(gs, idx, opt)
				crop := img.Crop(gs.Game.UI.CropRect(4))
				out = append(out, crop.ScaleNearestBlur(2, 0.5))
				imaging.Recycle(crop)
				imaging.Recycle(img)
				if len(out) == n {
					return out
				}
			}
		}
	}
	tb.Fatalf("the corpus has only %d thumbnails", len(out))
	return nil
}

// glyphBoxes returns the tight glyph boxes of bin's column strips with at
// least minArea pixels, in bin's coordinates.
func glyphBoxes(bin *imaging.Bitmap, minArea int) []imaging.Rect {
	var out []imaging.Rect
	for _, s := range bin.SegmentColumns(1, nil) {
		if box, area := bin.TightBoxCountIn(s); area >= max(minArea, 1) {
			out = append(out, imaging.Rect{X0: s.X0 + box.X0, Y0: s.Y0 + box.Y0, X1: s.X0 + box.X1, Y1: s.Y0 + box.Y1})
		}
	}
	return out
}

// memoChecker reads boxes through one memo and holds every answer to the
// direct normalizeCellPacked + matchCellPacked.
type memoChecker struct {
	t    *testing.T
	memo *glyphMemo
	n    memoCounts
}

func (c *memoChecker) read(what string, bin *imaging.Bitmap, box imaging.Rect, shift uint, bias int) memoResult {
	c.t.Helper()
	wr, wd := matchCellPacked(normalizeCellPacked(bin, box, shift), bias)
	r, d, how := c.memo.classify(bin, box, shift, bias)
	c.n[how]++
	if r != wr || d != wd {
		c.t.Fatalf("%s: box %v (%dx%d) shift %d bias %d: memo (%q, %d, %s), direct (%q, %d)",
			what, box, box.Width(), box.Height(), shift, bias, r, d, memoResultNames[how], wr, wd)
	}
	return how
}

// TestGlyphMemoIsExact holds the memo to the direct normalisation and match
// at every engine's (shift, digit bias) and at other biases, on one memo per
// sampling that every read shares: the glyph boxes of corpus crops, each
// read twice (the second read must hit), and seeded random boxes in families
// a key that left anything out would confuse — a box and the same box with
// its last row changed, a box and the box one empty row taller, and one box
// under two digit biases.
func TestGlyphMemoIsExact(t *testing.T) {
	crops := corpusCrops(t, 60)
	samplings := []sampling{
		{0, 0}, // Tessera's and EasyScan's
		{1, NewPaddleRead().DigitBias},
		{0, 3}, {1, -5}, {0, 127}, {1, -128},
	}
	r := rand.New(rand.NewSource(46))
	for _, sm := range samplings {
		c := &memoChecker{t: t, memo: new(glyphMemo)}
		for _, crop := range crops {
			bin := crop.PackGE(140)
			for _, box := range glyphBoxes(bin, 2) {
				c.read("corpus", bin, box, sm.shift, sm.bias)
				if how := c.read("corpus again", bin, box, sm.shift, sm.bias); how != memoHit && how != memoBypass {
					t.Fatalf("box %v read twice: second read %s, want hit", box, memoResultNames[how])
				}
			}
			imaging.RecycleBitmap(bin)
		}
		for i := 0; i < 400; i++ {
			bin := randomBitmap(r, 60+r.Intn(90), 24)
			w := 1 + r.Intn(min(bin.W-2, 64))
			h := 1 + r.Intn(min(memoRowBits/w, bin.H-1))
			x0, y0 := r.Intn(bin.W-w), r.Intn(bin.H-h)
			box := imaging.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h}
			c.read("random", bin, box, sm.shift, sm.bias)

			// The last row changed: its bits are the key's last ones.
			lastX := x0 + r.Intn(w)
			bin.Set(lastX, box.Y1-1, !bin.Get(lastX, box.Y1-1))
			c.read("last row changed", bin, box, sm.shift, sm.bias)

			// One empty row taller: the same bits, one more row.
			for x := x0; x < box.X1; x++ {
				bin.Set(x, box.Y1, false)
			}
			c.read("short", bin, box, sm.shift, sm.bias)
			tall := box
			tall.Y1++
			c.read("one empty row taller", bin, tall, sm.shift, sm.bias)

			// Another digit bias.
			c.read("other bias", bin, box, sm.shift, sm.bias+7)
			c.read("bias again", bin, box, sm.shift, sm.bias)
		}
		if c.n[memoHit] == 0 || c.n[memoMiss] == 0 {
			t.Errorf("shift %d bias %d: %v hits/misses/bypasses, want both hits and misses", sm.shift, sm.bias, c.n)
		}
	}
}

// TestGlyphMemoSlotCollision: two boxes whose keys share a slot, found by
// brute force, read in alternation — each read replaces the other's entry,
// so every read misses, and every answer is its own box's.
func TestGlyphMemoSlotCollision(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	const w, h = 10, 14
	type cand struct {
		bin *imaging.Bitmap
		box imaging.Rect
	}
	seen := map[uint]cand{}
	var a, b cand
	for found := false; !found; {
		bin := randomBitmap(r, w, h)
		box := imaging.Rect{X1: w, Y1: h}
		key, _ := memoKey(w, h, 0, 0)
		rows := packRows(bin, box, w)
		slot := memoSlot(&rows, key)
		if prev, ok := seen[slot]; ok && packRows(prev.bin, prev.box, w) != rows {
			a, b, found = prev, cand{bin, box}, true
		}
		seen[slot] = cand{bin, box}
	}
	c := &memoChecker{t: t, memo: new(glyphMemo)}
	for i := 0; i < 6; i++ {
		x := a
		if i%2 == 1 {
			x = b
		}
		if how := c.read("colliding", x.bin, x.box, 0, 0); how != memoMiss {
			t.Fatalf("read %d of two colliding boxes: %s, want miss", i, memoResultNames[how])
		}
	}
	if got := c.read("colliding, again", b.bin, b.box, 0, 0); got != memoHit {
		t.Fatalf("the last box read again: %s, want hit", memoResultNames[got])
	}
}

// TestGlyphMemoBypass: boxes the key cannot hold — wider than 64 columns,
// more than memoRowBits bits — a shift beyond 1, a bias beyond int8 and a
// nil memo are computed directly, exactly, and leave the memo empty.
func TestGlyphMemoBypass(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	bin := randomBitmap(r, 140, 40)
	c := &memoChecker{t: t, memo: new(glyphMemo)}
	for _, tc := range []struct {
		box   imaging.Rect
		shift uint
		bias  int
	}{
		{imaging.Rect{X0: 3, Y0: 1, X1: 3 + 65, Y1: 3}, 0, 0},
		{imaging.Rect{X0: 60, Y0: 0, X1: 60 + 14, Y1: 14}, 0, 0},
		{imaging.Rect{X0: 7, Y0: 0, X1: 7 + 5, Y1: 40}, 1, 0},
		{imaging.Rect{X0: 20, Y0: 2, X1: 30, Y1: 16}, 2, 0},
		{imaging.Rect{X0: 20, Y0: 2, X1: 30, Y1: 16}, 0, 128},
		{imaging.Rect{X0: 20, Y0: 2, X1: 30, Y1: 16}, 1, -129},
	} {
		for i := 0; i < 2; i++ {
			if how := c.read("bypass", bin, tc.box, tc.shift, tc.bias); how != memoBypass {
				t.Fatalf("box %v shift %d bias %d: %s, want bypass", tc.box, tc.shift, tc.bias, memoResultNames[how])
			}
		}
	}
	if used := c.memo.usedSlots(); len(used) != 0 {
		t.Fatalf("bypassed boxes filled %d slots", len(used))
	}
	var none *glyphMemo
	box := imaging.Rect{X0: 20, Y0: 2, X1: 30, Y1: 16}
	wr, wd := matchCellPacked(normalizeCellPacked(bin, box, 0), 0)
	if r, d, how := none.classify(bin, box, 0, 0); r != wr || d != wd || how != memoBypass {
		t.Fatalf("nil memo: (%q, %d, %s), want (%q, %d, bypass)", r, d, memoResultNames[how], wr, wd)
	}
}

// TestEnginesStartCold: every engine Engines() returns has a memo of its
// own, empty, so a new Extractor never reads what another one classified.
func TestEnginesStartCold(t *testing.T) {
	crop := corpusCrops(t, 1)[0]
	for i, e := range Engines() {
		e.Recognize(crop)
		if len(memoOf(e).usedSlots()) == 0 {
			t.Fatalf("%s remembered no glyph box", e.Name())
		}
		if fresh := Engines()[i]; len(memoOf(fresh).usedSlots()) != 0 {
			t.Fatalf("a new %s starts with %d remembered boxes", e.Name(), len(memoOf(fresh).usedSlots()))
		}
	}
}

// memoCounterValues reads ocr_cell_memo_total of one engine by result.
func memoCounterValues(engine string) memoCounts {
	var out memoCounts
	for i, name := range memoResultNames {
		out[i] = obs.C(obs.Lbl("ocr_cell_memo_total", "engine", engine, "result", name)).Value()
	}
	return out
}

// TestMemoCountersCountEveryBox: one Recognize call adds each glyph box it
// classifies to ocr_cell_memo_total once, under hit, miss or bypass.
func TestMemoCountersCountEveryBox(t *testing.T) {
	crops := corpusCrops(t, 30)
	e := NewTessera()
	before := memoCounterValues(e.Name())
	boxes := 0
	for _, crop := range crops {
		bin := crop.PackGE(e.Thr)
		boxes += len(glyphBoxes(bin, 3))
		imaging.RecycleBitmap(bin)
		e.Recognize(crop)
	}
	after := memoCounterValues(e.Name())
	var got int64
	for i := range after {
		got += after[i] - before[i]
	}
	if got != int64(boxes) || after[memoHit] == before[memoHit] {
		t.Fatalf("counted %d boxes (hits %d), want %d with some hits", got, after[memoHit]-before[memoHit], boxes)
	}
}

// TestMemoConcurrentMatchesSerial: goroutines recognising the corpus on one
// engine each, in different orders, get every crop's Result that a fresh
// engine's serial pass gets. Run under -race (check.sh runs it five times):
// the memo's slots are the only state they share.
func TestMemoConcurrentMatchesSerial(t *testing.T) {
	crops := corpusCrops(t, 90)
	shared := Engines()
	for i, e := range Engines() {
		want := make([]Result, len(crops))
		for j, crop := range crops {
			want[j] = e.Recognize(crop)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range crops {
					j := (k + g*len(crops)/goroutines) % len(crops)
					if got := shared[i].Recognize(crops[j]); !reflect.DeepEqual(got, want[j]) {
						errs <- shared[i].Name() + ": " + got.Text + " != " + want[j].Text
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
	}
}
