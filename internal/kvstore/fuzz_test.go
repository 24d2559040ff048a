package kvstore

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"

	"tero/internal/obs"
)

// Native fuzz targets for the byte-level decoders: the command reader (the
// server's socket, the AOF, the replication stream), the reply reader
// (every client and replica) and log replay under Open. The seed corpus in
// testdata/fuzz/ holds scribble's frames, a torn tail, each retired command
// form and the hostile headers of TestDecoderBounds; scripts/check.sh runs
// each target for a few seconds.

// FuzzReadCommand: never panics, decodes no more than arrived, and every
// frame it accepts re-encodes to a frame of the predicted length that
// decodes to the same arguments.
func FuzzReadCommand(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		decoded := 0
		for {
			args, err := readCommand(r)
			if err != nil {
				return
			}
			for _, a := range args {
				decoded += len(a)
			}
			if decoded > len(data) {
				t.Fatalf("decoded %d argument bytes from %d bytes of input", decoded, len(data))
			}
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			if err := writeCmd(w, args); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			if buf.Len() != respArrayLen(args) {
				t.Fatalf("%q encodes to %d bytes, respArrayLen says %d", args, buf.Len(), respArrayLen(args))
			}
			again, err := readCommand(bufio.NewReader(&buf))
			if err != nil || !reflect.DeepEqual(again, args) {
				t.Fatalf("round trip of %q = %q, %v", args, again, err)
			}
		}
	})
}

// replySize counts a reply's elements and checks its nesting.
func replySize(t *testing.T, r Reply, depth int) int {
	if depth > maxReplyDepth {
		t.Fatalf("reply nested %d arrays deep, bound %d", depth, maxReplyDepth)
	}
	n := 1
	for _, el := range r.Array {
		n += replySize(t, el, depth+1)
	}
	return n
}

// FuzzReadReply: never panics, nests no deeper than maxReplyDepth, and
// yields no more elements than the input has bytes to spell them (the
// shortest element, "+\r\n", is three).
func FuzzReadReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		elems := 0
		for {
			rep, err := readReply(r)
			if err != nil {
				return
			}
			if elems += replySize(t, rep, 0); elems*3 > len(data) {
				t.Fatalf("%d reply elements from %d bytes of input", elems, len(data))
			}
		}
	})
}

// FuzzReplayAOF plants arbitrary bytes as the AOF of a store directory. Open
// must recover from it without panicking or failing, allocating no more than
// a constant times the input (plus its fixed start-up cost), and must leave
// the directory healed: a write acknowledged after recovery and everything
// recovered before it are exactly what a second Open replays.
func FuzzReplayAOF(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		defer obs.SetLogOutput(obs.SetLogOutput(io.Discard))
		dir := t.TempDir()
		if err := os.WriteFile(aofPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		opt := PersistOptions{Fsync: FsyncNever}
		var s *Store
		var err error
		alloc := allocatedBy(func() { s, err = Open(dir, opt) })
		if err != nil {
			t.Fatalf("Open over a damaged AOF tail: %v", err)
		}
		if bound := uint64(64*len(data) + 1<<20); alloc > bound {
			t.Fatalf("Open allocated %d bytes replaying %d, bound %d", alloc, len(data), bound)
		}
		s.Set("fuzz:after-recovery", "acknowledged")
		want := fingerprint(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s2.Close()
		if got := fingerprint(s2); got != want {
			t.Fatalf("second recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
		}
	})
}
