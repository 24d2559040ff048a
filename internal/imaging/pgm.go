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

// byteReader is what the header parser needs: single bytes for the header,
// bulk reads for the pixels. *bytes.Reader and *bufio.Reader are both.
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
// A reader that is an io.ByteReader (*bytes.Reader, which is what every
// caller in the program passes) is read in place, with nothing allocated
// but the image; any other reader is wrapped in a bufio.Reader.
func DecodePGM(r io.Reader) (*Gray, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	if c, err := pgmSkipSpace(br); err != nil || c != 'P' {
		return nil, ErrBadPGM
	}
	if c, err := br.ReadByte(); err != nil || c != '5' {
		return nil, ErrBadPGM
	}
	if c, err := br.ReadByte(); err != nil || !pgmSpace(c) {
		return nil, ErrBadPGM
	}
	w, ok := pgmField(br, maxPGMDim)
	if !ok {
		return nil, ErrBadPGM
	}
	h, ok := pgmField(br, maxPGMDim)
	if !ok || h > maxPGMPixels/w {
		return nil, ErrBadPGM
	}
	// The whitespace byte that ends the last field is the one that
	// separates the header from the pixel data.
	if maxVal, ok := pgmField(br, 255); !ok || maxVal != 255 {
		return nil, ErrBadPGM
	}
	img := New(w, h)
	if _, err := io.ReadFull(br, img.Pix); err != nil {
		Recycle(img)
		return nil, ErrBadPGM
	}
	return img, nil
}

// pgmSpace reports whether c is PGM header whitespace: space, TAB, LF, VT,
// FF or CR.
func pgmSpace(c byte) bool { return c == ' ' || (c >= '\t' && c <= '\r') }

// pgmSkipSpace returns the first byte that is not header whitespace.
func pgmSkipSpace(br io.ByteReader) (byte, error) {
	for {
		c, err := br.ReadByte()
		if err != nil || !pgmSpace(c) {
			return c, err
		}
	}
}

// pgmField reads one numeric header field in [1, max], skipping the
// whitespace before it and consuming the single whitespace byte that ends
// it. Anything else — no digits, a leading zero, a value over max, a
// non-space terminator, the input ending — is not ok.
func pgmField(br io.ByteReader, max int) (n int, ok bool) {
	c, err := pgmSkipSpace(br)
	if err != nil || c == '0' {
		return 0, false
	}
	for c >= '0' && c <= '9' {
		n = n*10 + int(c-'0')
		if n > max {
			return 0, false
		}
		if c, err = br.ReadByte(); err != nil {
			return 0, false
		}
	}
	return n, n > 0 && pgmSpace(c)
}
