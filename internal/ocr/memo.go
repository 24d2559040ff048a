package ocr

import (
	"math/bits"
	"sync/atomic"

	"tero/internal/imaging"
	"tero/internal/obs"
)

// A latency display is drawn in its game's fixed font at a fixed scale, so
// the same glyph boxes come back thumbnail after thumbnail: in one pass over
// a benchmark corpus, about 7% of the boxes an engine classifies are
// distinct. The glyph memo remembers what matchCellPacked(normalizeCellPacked
// (…)) answered for a box, which is a pure function of the box's width,
// height and bits, the engine's sampling shift and its digit bias; the key
// holds all of them, and a hit compares the whole key.
//
// Each engine value owns one memo (never the package: a new Extractor starts
// cold). It is a fixed table of memoSlots direct-mapped slots, each an
// atomic pointer to an immutable entry: a miss allocates one 32-byte entry
// and replaces whatever the slot held, so the memo is bounded, lock-free and
// never wrong, only sometimes cold.

// memoSlotBits sizes the table: 4,096 slots (32 KiB of pointers) per engine,
// over five times the ≈ 750 distinct boxes an engine meets in a pass.
const memoSlotBits = 12

const memoSlots = 1 << memoSlotBits

// memoRowBits is the packed key's capacity: a box whose rows, concatenated,
// need more bits bypasses the memo.
const memoRowBits = 64 * len(memoEntry{}.rows)

// memoEntry is one remembered box and its answer (32 bytes).
type memoEntry struct {
	// rows are the box's rows, each box-width bits with the left column
	// lowest, concatenated from the top row up.
	rows [3]uint64
	// key is the box's width | height<<7 | shift<<15 | uint8(digit bias)<<16.
	key uint32
	r   uint16
	d   int16
}

// glyphMemo is one engine's memo; the zero value is empty.
type glyphMemo struct {
	slots [memoSlots]atomic.Pointer[memoEntry]
}

// memoResult says how a box was classified: read off the memo, computed and
// remembered, or computed without the memo.
type memoResult uint8

const (
	memoHit memoResult = iota
	memoMiss
	memoBypass
)

// memoCounts tallies one call's boxes by memoResult.
type memoCounts [3]int64

// memoKey packs what besides the box's bits its answer depends on, or
// reports false when the box does not fit the key: wider than 64 columns,
// more than memoRowBits bits, a shift beyond 1 or a bias beyond int8.
func memoKey(w, h int, shift uint, digitBias int) (uint32, bool) {
	if w > 64 || w*h > memoRowBits || shift > 1 || digitBias != int(int8(digitBias)) {
		return 0, false
	}
	return uint32(w) | uint32(h)<<7 | uint32(shift)<<15 | uint32(uint8(digitBias))<<16, true
}

// packRows concatenates the rows of box (inside bin, w×h with w ≤ 64 and
// w·h ≤ memoRowBits) into row-major bits, the top-left pixel lowest.
func packRows(bin *imaging.Bitmap, box imaging.Rect, w int) [3]uint64 {
	var out [3]uint64
	x, mask := uint(box.X0), ^uint64(0)>>(64-uint(w))
	lo, off := x>>6, x&63
	p := uint(0)
	for y := box.Y0; y < box.Y1; y++ {
		row := bin.Row(y)
		v := row[lo] >> off
		if off+uint(w) > 64 {
			v |= row[lo+1] << (64 - off)
		}
		v &= mask
		out[p>>6] |= v << (p & 63)
		if p&63+uint(w) > 64 {
			out[p>>6+1] |= v >> (64 - p&63)
		}
		p += uint(w)
	}
	return out
}

// memoSlot hashes a key to its slot.
func memoSlot(rows *[3]uint64, key uint32) uint {
	const m1, m2, m3 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb
	h := (rows[0] ^ uint64(key)<<32) * m1
	h = (bits.RotateLeft64(h, 29) ^ rows[1]) * m2
	h = (bits.RotateLeft64(h, 29) ^ rows[2]) * m3
	return uint(h >> (64 - memoSlotBits))
}

// classify returns matchCellPacked(normalizeCellPacked(bin, box, shift),
// digitBias) for box (absolute coordinates in bin, non-empty and inside
// it), from the memo when it holds the box. A nil memo computes every box.
func (m *glyphMemo) classify(bin *imaging.Bitmap, box imaging.Rect, shift uint, digitBias int) (rune, int, memoResult) {
	w, h := box.Width(), box.Height()
	key, ok := memoKey(w, h, shift, digitBias)
	if m == nil || !ok {
		r, d := matchCellPacked(normalizeCellPacked(bin, box, shift), digitBias)
		return r, d, memoBypass
	}
	rows := packRows(bin, box, w)
	slot := &m.slots[memoSlot(&rows, key)]
	if e := slot.Load(); e != nil && e.key == key && e.rows == rows {
		return rune(e.r), int(e.d), memoHit
	}
	r, d := matchCellPacked(normalizeCellPacked(bin, box, shift), digitBias)
	if r >= 0 && r <= 0xffff && d == int(int16(d)) {
		slot.Store(&memoEntry{rows: rows, key: key, r: uint16(r), d: int16(d)})
	}
	return r, d, memoMiss
}

// lazyCounter is a counter handle registered at its first count, so the
// metric is listed on /metrics once it has counted something.
type lazyCounter struct {
	name string
	c    atomic.Pointer[obs.Counter]
}

// add counts v; a first count registers the counter.
func (l *lazyCounter) add(v int64) {
	if v == 0 {
		return
	}
	c := l.c.Load()
	if c == nil {
		// Racing first counts resolve the same handle.
		c = obs.C(l.name)
		l.c.Store(c)
	}
	c.Add(v)
}

// memoCounters are one engine's ocr_cell_memo_total{engine=…,result=…}
// handles, one per memoResult.
type memoCounters [3]lazyCounter

var memoResultNames = [3]string{memoHit: "hit", memoMiss: "miss", memoBypass: "bypass"}

func newMemoCounters(engine string) *memoCounters {
	mc := new(memoCounters)
	for i, result := range memoResultNames {
		mc[i].name = obs.Lbl("ocr_cell_memo_total", "engine", engine, "result", result)
	}
	return mc
}

var (
	tesseraMemoCounters    = newMemoCounters("tessera")
	easyScanMemoCounters   = newMemoCounters("easyscan")
	paddleReadMemoCounters = newMemoCounters("paddleread")
)

// add counts one call's boxes: one atomic add per result seen.
func (mc *memoCounters) add(n *memoCounts) {
	for i, v := range n {
		mc[i].add(v)
	}
}
