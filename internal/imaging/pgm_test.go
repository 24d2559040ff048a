package imaging

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// fscanDecodePGM is the header parser DecodePGM had until the hand-written
// one replaced it, kept verbatim as the reference the fuzz target compares
// against. It also reports the size the header declared (0, 0 when the four
// tokens did not scan), whether or not that size passed the bounds.
func fscanDecodePGM(r io.Reader) (img *Gray, w, h int, err error) {
	br := bufio.NewReader(r)
	var magic string
	var maxVal int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxVal); err != nil {
		return nil, 0, 0, ErrBadPGM
	}
	const maxDim = 1 << 16
	if magic != "P5" || w <= 0 || h <= 0 || w > maxDim || h > maxDim ||
		maxVal != 255 || w*h > 64<<20 {
		return nil, w, h, ErrBadPGM
	}
	if _, err := br.ReadByte(); err != nil {
		return nil, w, h, ErrBadPGM
	}
	img = New(w, h)
	if _, err := io.ReadFull(br, img.Pix); err != nil {
		return nil, w, h, ErrBadPGM
	}
	return img, w, h, nil
}

// plainReader hides every method of the reader under it but Read, so
// DecodePGM takes its bufio fallback.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

func sameImage(a, b *Gray) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

// allocatedBy returns the bytes fn allocated: the least of up to three
// measurements, since TotalAlloc is process-wide and another goroutine may
// allocate inside the window. An allocation fn itself makes repeats.
func allocatedBy(fn func(), enough uint64) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3 && least > enough; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// FuzzDecodePGM feeds DecodePGM arbitrary bytes — it is what stands between
// a CDN response and the OCR engines. The committed corpus
// (testdata/fuzz/FuzzDecodePGM) holds a real rendered thumbnail, the edges
// of what EncodePGM can write (1×1, a 65,536-wide row, sizes just over each
// bound), torn headers and pixels, twitchsim's bit-flip pattern, and every
// numeral and separator form the old fmt.Fscan header parser took.
//
// Oracles: DecodePGM never panics; a header whose declared size is out of
// bounds is refused before anything of that size is allocated; a decoded
// image survives EncodePGM → DecodePGM unchanged; reading in place from an
// io.ByteReader and through the bufio fallback give the same answer on every
// input; and against fscanDecodePGM the hand parser is a strict narrowing:
// whatever it accepts the old one accepted, as the byte-identical image.
//
// What it no longer accepts (numerals are decimal digits only, without a
// leading zero): signs (+4), `_` separators (1_0), 0x/0o/0b prefixes, a
// leading zero (010 was octal 8; 0 itself was never a valid size), Unicode
// spaces between tokens, and a non-whitespace byte as the single separator
// before the pixels.
func FuzzDecodePGM(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodePGM(bytes.NewReader(data))
		viaBufio, bufioErr := DecodePGM(plainReader{bytes.NewReader(data)})
		if (err == nil) != (bufioErr == nil) || (err == nil && !sameImage(got, viaBufio)) {
			t.Fatalf("in-place read: %v, %v; bufio fallback: %v, %v", got, err, viaBufio, bufioErr)
		}

		ref, w, h, refErr := fscanDecodePGM(bytes.NewReader(data))
		if err == nil && (refErr != nil || !sameImage(got, ref)) {
			t.Fatalf("accepted as %dx%d what the fmt.Fscan parser read as %dx%d, %v", got.W, got.H, w, h, refErr)
		}
		// w*h cannot overflow: it is only evaluated with both ≤ 65,536.
		if w > 0 && h > 0 && (w > maxPGMDim || h > maxPGMDim || w*h > maxPGMPixels) {
			if err == nil {
				t.Fatalf("accepted an out-of-bounds %dx%d header", w, h)
			}
			// The smallest out-of-bounds size is 65,537 pixels; refusing one
			// costs a bytes.Reader, or bufio's 4 KiB on the fallback path.
			const enough = 16 << 10
			for _, r := range []func() io.Reader{
				func() io.Reader { return bytes.NewReader(data) },
				func() io.Reader { return plainReader{bytes.NewReader(data)} },
			} {
				if n := allocatedBy(func() { DecodePGM(r()) }, enough); n > enough { //nolint:errcheck // refusal checked above
					t.Fatalf("refusing a %dx%d header allocated %d bytes", w, h, n)
				}
			}
		}
		if err != nil {
			return
		}

		var buf bytes.Buffer
		if err := got.EncodePGM(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := DecodePGM(&buf) // *bytes.Buffer is an io.ByteReader too
		if err != nil || !sameImage(got, again) {
			t.Fatalf("%dx%d image did not survive EncodePGM → DecodePGM: %v", got.W, got.H, err)
		}
	})
}

// TestDecodePGMHeaderForms pins, form by form, what the fuzz target only
// holds to "never more than the old parser": which headers decode, and to
// what.
func TestDecodePGMHeaderForms(t *testing.T) {
	const px = "01234567"
	cases := []struct {
		name, in string
		w, h     int    // 0, 0: ErrBadPGM
		pix      string // expected pixels when accepted
	}{
		{"as EncodePGM writes it", "P5\n4 2\n255\n" + px, 4, 2, px},
		{"single spaces", "P5 4 2 255 " + px, 4, 2, px},
		{"runs of mixed whitespace", " \n\tP5\t\t4\r\n2 \v\f255\n" + px, 4, 2, px},
		{"CR-LF: the LF is the first pixel", "P5\r\n4 2\r\n255\r\n" + px, 4, 2, "\n0123456"},
		{"trailing bytes are not read", "P5\n1 1\n255\nZtrailer", 1, 1, "Z"},
		{"five-digit width", "P5\n10000 1\n255\n" + string(make([]byte, 10000)), 10000, 1, string(make([]byte, 10000))},

		{"empty", "", 0, 0, ""},
		{"ASCII PGM", "P2\n4 2\n255\n" + px, 0, 0, ""},
		{"magic runs on", "P55 4 2 255\n" + px, 0, 0, ""},
		{"torn header", "P5\n4 2\n25", 0, 0, ""},
		{"header ends at maxval", "P5\n4 2\n255", 0, 0, ""},
		{"torn pixels", "P5\n4 2\n255\n0123456", 0, 0, ""},
		{"zero width", "P5\n0 2\n255\n", 0, 0, ""},
		{"negative width", "P5\n-4 2\n255\n" + px, 0, 0, ""},
		{"maxval 65535", "P5\n4 2\n65535\n" + px + px, 0, 0, ""},
		{"maxval 254", "P5\n4 2\n254\n" + px, 0, 0, ""},
		{"width over 65536", "P5\n65537 1\n255\n", 0, 0, ""},
		{"area over 64 Mi", "P5\n8193 8192\n255\n", 0, 0, ""},
		{"numeral that overflows int64", "P5\n99999999999999999999 1\n255\n", 0, 0, ""},
		{"comment", "P5\n# by hand\n4 2\n255\n" + px, 0, 0, ""},

		// Accepted by the fmt.Fscan parser, malformed now.
		{"sign", "P5\n+4 2\n255\n" + px, 0, 0, ""},
		{"hex", "P5\n0x4 2\n255\n" + px, 0, 0, ""},
		{"leading zero (was octal)", "P5\n010 1\n255\n" + px, 0, 0, ""},
		{"underscore", "P5\n1_0 1\n255\n" + px + px, 0, 0, ""},
		{"Unicode space", "P5\u00a04 2 255\n" + px, 0, 0, ""},
		{"non-space separator", "P5 4 2 255X" + px, 0, 0, ""},
	}
	for _, tc := range cases {
		for _, path := range []struct {
			name string
			r    io.Reader
		}{
			{"in place", bytes.NewReader([]byte(tc.in))},
			{"bufio fallback", plainReader{bytes.NewReader([]byte(tc.in))}},
		} {
			img, err := DecodePGM(path.r)
			if tc.w == 0 {
				if err != ErrBadPGM || img != nil {
					t.Errorf("%s (%s): got %v, %v; want ErrBadPGM", tc.name, path.name, img, err)
				}
				continue
			}
			if err != nil || img.W != tc.w || img.H != tc.h || string(img.Pix) != tc.pix {
				t.Errorf("%s (%s): got %v, %v; want %dx%d %q", tc.name, path.name, img, err, tc.w, tc.h, tc.pix)
			}
		}
	}
}

// TestDecodePGMInPlaceAllocatesOnlyTheImage: decoding from a *bytes.Reader
// costs the image and nothing else — and with the image drawn from the
// pool, as on the extraction path where every decoded thumbnail is recycled,
// nothing at all. The bufio.Reader and fmt.Fscan it replaces cost 4 KiB and
// a dozen small allocations per thumbnail.
func TestDecodePGMInPlaceAllocatesOnlyTheImage(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFilled(320, 180, 0x40).EncodePGM(&buf); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(buf.Bytes())
		img, err := DecodePGM(r)
		if err != nil {
			t.Fatal(err)
		}
		Recycle(img)
	})
	// A GC may empty the pool mid-run and cost one image; anything per-call
	// would show as ≥ 1.
	if allocs >= 1 {
		t.Fatalf("DecodePGM from a *bytes.Reader: %.2f allocations per call, want 0", allocs)
	}
}
