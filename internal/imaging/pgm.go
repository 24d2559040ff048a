package imaging

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// EncodePGM writes the image as a binary PGM (P5), the wire format the
// simulated CDN serves thumbnails in.
func (g *Gray) EncodePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return err
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// ErrBadPGM is returned for malformed PGM input.
var ErrBadPGM = errors.New("imaging: malformed PGM")

// Header bounds. Each dimension is bounded as well as the product: a
// corrupted header can otherwise request a pathological allocation (e.g.
// 1×2^26) that passes the area check but no real thumbnail ever has.
const (
	maxPGMDim    = 1 << 16
	maxPGMPixels = 64 << 20
)

// byteReader is what DecodePGM reads a header from one byte at a time before
// it reads the pixels in bulk. *bytes.Reader and *bufio.Reader are both.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// DecodePGM reads a binary PGM (P5) image: the tokens "P5", width, height
// and 255 separated by ASCII whitespace, exactly one whitespace byte, then
// width×height pixel bytes.
//
// The three numerals are decimal digits only, without a leading zero. The
// other forms the fmt.Fscan header parser this replaces let through — a
// sign, `_` separators, 0x/0o/0b prefixes, leading-zero octal ("0500" read
// as 320), Unicode spaces between tokens and any byte at all as the
// separator before the pixels — are malformed now; EncodePGM writes none of
// them. `#` comments were never accepted.
//
// A reader that is an io.ByteReader (*bytes.Reader, *bytes.Buffer) is read
// in place, with nothing allocated but the image; any other reader is
// wrapped in a bufio.Reader. The extraction path does not come through
// here: it holds the object's bytes and decodes only the rows it will read
// (DecodePGMRect).
func DecodePGM(r io.Reader) (*Gray, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	// The header is copied off the reader — everything up to the whitespace
	// byte that ends the fourth token, wherever the tokens are malformed —
	// and judged by the one parser. No valid header is longer than 19 bytes
	// plus its optional extra whitespace, so the copy stays on the stack.
	hdr := make([]byte, 0, 64)
	for tokens, inToken := 0, false; tokens < 4; {
		c, err := br.ReadByte()
		if err != nil {
			return nil, ErrBadPGM
		}
		hdr = append(hdr, c)
		if !pgmSpace(c) {
			inToken = true
		} else if inToken {
			inToken = false
			tokens++
		}
	}
	w, h, _, ok := pgmHeader(hdr)
	if !ok {
		return nil, ErrBadPGM
	}
	img := New(w, h)
	if _, err := io.ReadFull(br, img.Pix); err != nil {
		Recycle(img)
		return nil, ErrBadPGM
	}
	return img, nil
}

// DecodePGMRect decodes from the bytes of a PGM only the sub-image r: it is
// DecodePGM(bytes.NewReader(data)) followed by Crop(r) — the same grammar,
// the same bounds, ErrBadPGM for exactly the same inputs (pixel bytes that
// are not all there included; trailing bytes ignored), r clamped to the
// image and a 0×0 image for an empty one — without the whole image ever
// being copied. A 320×180 thumbnail is read for a latency display some
// fifteen rows high; this copies those rows and touches no other pixel.
func DecodePGMRect(data []byte, r Rect) (*Gray, error) {
	w, h, off, ok := pgmHeader(data)
	// h ≤ maxPGMPixels/w, so w*h cannot overflow.
	if !ok || len(data)-off < w*h {
		return nil, ErrBadPGM
	}
	r = r.Clamp(w, h)
	if r.Empty() {
		return New(0, 0), nil
	}
	out := New(r.Width(), r.Height())
	for y := 0; y < out.H; y++ {
		src := off + (r.Y0+y)*w + r.X0
		copy(out.Pix[y*out.W:(y+1)*out.W], data[src:src+out.W])
	}
	return out, nil
}

// pgmHeader parses the header at the start of data: the image size, and
// the offset of the first pixel byte. It is the only judge of the grammar
// and of the size bounds.
func pgmHeader(data []byte) (w, h, off int, ok bool) {
	i := pgmSkipSpace(data, 0)
	if i+2 >= len(data) || data[i] != 'P' || data[i+1] != '5' || !pgmSpace(data[i+2]) {
		return 0, 0, 0, false
	}
	i += 3
	if w, i, ok = pgmField(data, i, maxPGMDim); !ok {
		return 0, 0, 0, false
	}
	if h, i, ok = pgmField(data, i, maxPGMDim); !ok || h > maxPGMPixels/w {
		return 0, 0, 0, false
	}
	// The whitespace byte that ends the last field is the one that
	// separates the header from the pixel data.
	maxVal, i, ok := pgmField(data, i, 255)
	if !ok || maxVal != 255 {
		return 0, 0, 0, false
	}
	return w, h, i, true
}

// pgmSpace reports whether c is PGM header whitespace: space, TAB, LF, VT,
// FF or CR.
func pgmSpace(c byte) bool { return c == ' ' || (c >= '\t' && c <= '\r') }

// pgmSkipSpace returns the index of the first byte at or after i that is
// not header whitespace, or len(data).
func pgmSkipSpace(data []byte, i int) int {
	for i < len(data) && pgmSpace(data[i]) {
		i++
	}
	return i
}

// pgmField reads one numeric header field in [1, max] starting at i,
// skipping the whitespace before it, and returns the index just past the
// single whitespace byte that ends it. Anything else — no digits, a leading
// zero, a value over max, a non-space terminator, the input ending — is not
// ok.
func pgmField(data []byte, i, max int) (n, next int, ok bool) {
	i = pgmSkipSpace(data, i)
	if i < len(data) && data[i] == '0' {
		return 0, 0, false
	}
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		n = n*10 + int(data[i]-'0')
		if n > max {
			return 0, 0, false
		}
	}
	if n == 0 || i >= len(data) || !pgmSpace(data[i]) {
		return 0, 0, false
	}
	return n, i + 1, true
}
