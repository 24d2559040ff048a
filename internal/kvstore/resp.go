package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// RESP framing (the Redis serialization protocol subset the server speaks):
// requests are arrays of bulk strings; replies are simple strings, errors,
// integers, bulk strings, nulls or arrays.

var errProtocol = errors.New("kvstore: protocol error")

// Decoder bounds. The bytes come off a socket or a log file, so what a
// frame's header claims must not decide how much its reader allocates.
const (
	// maxLine caps a header, status or error line; the longest legitimate
	// one is a REPLINFO or error string.
	maxLine = 64 << 10
	// maxReplyDepth bounds array nesting in a reply: the one array reply
	// the server writes (HGETALL) is flat.
	maxReplyDepth = 4
	// bulkChunk is what a bulk header alone commits its reader to; the
	// buffer then doubles as the payload actually arrives.
	bulkChunk = 64 << 10
)

// writeArray writes an array header.
func writeArray(w *bufio.Writer, n int) error {
	_, err := fmt.Fprintf(w, "*%d\r\n", n)
	return err
}

// writeBulk writes one bulk string.
func writeBulk(w *bufio.Writer, s string) error {
	_, err := fmt.Fprintf(w, "$%d\r\n%s\r\n", len(s), s)
	return err
}

// writeNull writes a null bulk string.
func writeNull(w *bufio.Writer) error {
	_, err := w.WriteString("$-1\r\n")
	return err
}

// writeSimple writes a simple (status) string.
func writeSimple(w *bufio.Writer, s string) error {
	_, err := fmt.Fprintf(w, "+%s\r\n", s)
	return err
}

// writeError writes an error reply.
func writeError(w *bufio.Writer, msg string) error {
	_, err := fmt.Fprintf(w, "-ERR %s\r\n", msg)
	return err
}

// writeInt writes an integer reply.
func writeInt(w *bufio.Writer, n int64) error {
	_, err := fmt.Fprintf(w, ":%d\r\n", n)
	return err
}

// readLine reads one CRLF-terminated line of at most maxLine bytes, without
// the terminator. Input that ends inside a line is io.ErrUnexpectedEOF, not
// io.EOF: a log torn inside a header must be truncated like one torn inside
// a payload (replayFile), or the next append lands behind the fragment.
func readLine(r *bufio.Reader) (string, error) {
	var long []byte // only a line longer than the reader's buffer lands here
	for {
		frag, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			if len(long)+len(frag) > maxLine {
				return "", errProtocol
			}
			long = append(long, frag...)
			continue
		}
		if err != nil {
			if err == io.EOF && len(long)+len(frag) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return "", err
		}
		line := frag
		if long != nil {
			line = append(long, frag...)
		}
		if len(line) < 2 || line[len(line)-2] != '\r' {
			return "", errProtocol
		}
		return string(line[:len(line)-2]), nil
	}
}

// readCommand reads one request: an array of bulk strings.
func readCommand(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, errProtocol
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 || n > 1024 {
		return nil, errProtocol
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := readBulk(r)
		if err == io.EOF {
			// The header arrived, so running dry here is a torn frame, not
			// a clean end of stream.
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		args = append(args, s)
	}
	return args, nil
}

// readBulk reads one bulk string.
func readBulk(r *bufio.Reader) (string, error) {
	line, err := readLine(r)
	if err != nil {
		return "", err
	}
	if len(line) == 0 || line[0] != '$' {
		return "", errProtocol
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil {
		return "", errProtocol
	}
	return readBulkBody(r, n)
}

// readBulkBody reads an n-byte payload and its CRLF.
func readBulkBody(r *bufio.Reader, n int) (string, error) {
	if n < 0 || n > 64<<20 {
		return "", errProtocol
	}
	buf := make([]byte, min(n+2, bulkChunk))
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	for len(buf) < n+2 {
		more := min(n+2-len(buf), len(buf))
		buf = append(buf, make([]byte, more)...)
		if _, err := io.ReadFull(r, buf[len(buf)-more:]); err != nil {
			return "", err
		}
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return "", errProtocol
	}
	return string(buf[:n]), nil
}

// Reply is a decoded server reply.
type Reply struct {
	// Kind is one of '+', '-', ':', '$', '*'.
	Kind byte
	Str  string
	Int  int64
	// Null marks a null bulk reply.
	Null  bool
	Array []Reply
}

// readReply decodes one reply.
func readReply(r *bufio.Reader) (Reply, error) { return readReplyAt(r, 0) }

// readReplyAt decodes one reply nested depth arrays deep.
func readReplyAt(r *bufio.Reader, depth int) (Reply, error) {
	line, err := readLine(r)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, errProtocol
	}
	switch line[0] {
	case '+':
		return Reply{Kind: '+', Str: line[1:]}, nil
	case '-':
		return Reply{Kind: '-', Str: line[1:]}, nil
	case ':':
		n, err := strconv.ParseInt(line[1:], 10, 64)
		if err != nil {
			return Reply{}, errProtocol
		}
		return Reply{Kind: ':', Int: n}, nil
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return Reply{}, errProtocol
		}
		if n == -1 {
			return Reply{Kind: '$', Null: true}, nil
		}
		str, err := readBulkBody(r, n)
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: '$', Str: str}, nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil || n < -1 || n > 1<<20 || depth >= maxReplyDepth {
			return Reply{}, errProtocol
		}
		if n == -1 {
			return Reply{Kind: '*', Null: true}, nil
		}
		// Grown as elements arrive: the count is the peer's claim.
		arr := make([]Reply, 0, min(n, 64))
		for i := 0; i < n; i++ {
			el, err := readReplyAt(r, depth+1)
			if err != nil {
				return Reply{}, err
			}
			arr = append(arr, el)
		}
		return Reply{Kind: '*', Array: arr}, nil
	default:
		return Reply{}, errProtocol
	}
}
