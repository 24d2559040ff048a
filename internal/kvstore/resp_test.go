package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"tero/internal/obs"
)

// allocatedBy returns the bytes f allocates (heap total, not live).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecoderBounds feeds the three decoders input whose headers claim more
// than the peer ever sends. Each must fail with a protocol (or torn-frame)
// error having read and allocated an amount bounded by what arrived, not by
// what was claimed.
func TestDecoderBounds(t *testing.T) {
	command := func(r *bufio.Reader) error { _, err := readCommand(r); return err }
	reply := func(r *bufio.Reader) error { _, err := readReply(r); return err }
	cases := []struct {
		name     string
		input    string
		decode   func(*bufio.Reader) error
		want     error
		maxRead  int    // bytes the decoder may consume (0 = all of input)
		maxAlloc uint64 // bytes it may allocate
	}{
		{"command line without newline", "*" + strings.Repeat("1", 1<<20), command,
			errProtocol, maxLine + 8192, 1 << 20},
		{"reply line without newline", "+" + strings.Repeat("x", 1<<20), reply,
			errProtocol, maxLine + 8192, 1 << 20},
		{"bulk line without newline", "*1\r\n$" + strings.Repeat("1", 1<<20), command,
			errProtocol, maxLine + 8192, 1 << 20},
		{"reply array header alone", "*1048576\r\n", reply,
			io.EOF, 0, 1 << 20},
		{"reply bulk header alone", "$67108864\r\n", reply,
			io.EOF, 0, 1 << 20},
		{"command bulk header alone", "*1\r\n$67108864\r\nabc", command,
			io.ErrUnexpectedEOF, 0, 1 << 20},
		{"reply arrays nested without end", strings.Repeat("*1\r\n", 100000), reply,
			errProtocol, 8192, 1 << 20},
		{"command torn after header", "*3\r\n$3\r\nSET\r\n", command,
			io.ErrUnexpectedEOF, 0, 1 << 20},
		{"command torn inside a header", "*3\r\n$3\r\nSET\r\n$1", command,
			io.ErrUnexpectedEOF, 0, 1 << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := strings.NewReader(c.input)
			var err error
			alloc := allocatedBy(func() { err = c.decode(bufio.NewReader(src)) })
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if read := len(c.input) - src.Len(); c.maxRead > 0 && read > c.maxRead {
				t.Fatalf("consumed %d bytes of an unterminated frame, bound %d", read, c.maxRead)
			}
			if alloc > c.maxAlloc {
				t.Fatalf("allocated %d bytes for %d bytes of input, bound %d", alloc, len(c.input), c.maxAlloc)
			}
		})
	}
}

// TestLargeBulkRoundTrip: a payload larger than bulkChunk still decodes — the
// buffer grows as the bytes arrive.
func TestLargeBulkRoundTrip(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", (3*bulkChunk)/16+1)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeCmd(w, []string{"SET", "k", big}); err != nil {
		t.Fatal(err)
	}
	if err := writeBulk(w, big); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	args, err := readCommand(r)
	if err != nil || len(args) != 3 || args[2] != big {
		t.Fatalf("command with a %d-byte bulk: %d args, %v", len(big), len(args), err)
	}
	if rep, err := readReply(r); err != nil || rep.Str != big {
		t.Fatalf("%d-byte bulk reply: %v", len(big), err)
	}
}

// TestTornTailAtEveryOffset tears the final append at each byte of its frame
// — inside the array header, a bulk header, a payload, a CRLF — and checks
// that recovery truncates to the last whole command every time, so that a
// write acknowledged after recovery is still there after the next one. A
// tear inside a header used to read as a clean end of file: the fragment
// stayed, and the next append landed behind it.
func TestTornTailAtEveryOffset(t *testing.T) {
	defer obs.SetLogOutput(obs.SetLogOutput(io.Discard)) // one truncation warning per offset
	var frame bytes.Buffer
	w := bufio.NewWriter(&frame)
	if err := writeCmd(w, []string{"SET", "torn", "never-acknowledged"}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	for cut := 1; cut < frame.Len(); cut++ {
		dir := t.TempDir()
		writeLog(t, aofPath(dir, 1), []string{"SET", "whole", "1"})
		f, err := os.OpenFile(aofPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(frame.Bytes()[:cut])
		f.Close()

		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		s.Set("after-tear", "ok")
		want := fingerprint(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d, second open: %v", cut, err)
		}
		got := fingerprint(s2)
		s2.Close()
		if got != want || s2.Len() != 2 {
			t.Fatalf("tail torn %d bytes into its frame (%q): second recovery has\n%swant\n%s",
				cut, frame.Bytes()[:cut], got, want)
		}
	}
}
