package objstore

import (
	"bytes"
	"errors"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// TestSpillWriteThrough: with a spill directory, payload bytes land on disk
// at Put time and come back intact on Get; metadata stays in memory.
func TestSpillWriteThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("P5\n4 4\n255\n\x00\x01\xfe\xff payload")
	meta := map[string]string{"streamer": "s1", "at": "2024-01-01T00:00:00Z"}
	etag := s.Put("thumbs", "s1/000001.pgm", data, meta)

	// The payload file exists with exactly the stored bytes (key separators
	// escaped so "s1/000001.pgm" is one flat file, not a nested path).
	p := filepath.Join(dir, "thumbs", url.QueryEscape("s1/000001.pgm"))
	onDisk, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("payload not spilled to %s: %v", p, err)
	}
	if !bytes.Equal(onDisk, data) {
		t.Fatalf("spilled bytes differ: %q != %q", onDisk, data)
	}

	got, err := s.Get("thumbs", "s1/000001.pgm")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got.Data, data) || got.ETag != etag {
		t.Fatalf("Get after spill = %q etag %q, want %q etag %q", got.Data, got.ETag, data, etag)
	}
	if got.Meta["streamer"] != "s1" {
		t.Fatalf("meta lost: %v", got.Meta)
	}

	// Head never touches the payload file.
	h, err := s.Head("thumbs", "s1/000001.pgm")
	if err != nil || h.Data != nil {
		t.Fatalf("Head = %+v, %v", h, err)
	}
}

// TestSpillOverwriteAndDelete: overwriting replaces the file contents;
// deletion removes both the index entry and the file.
func TestSpillOverwriteAndDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "k", []byte("first"), nil)
	s.Put("b", "k", []byte("second, longer"), nil)
	got, err := s.Get("b", "k")
	if err != nil || string(got.Data) != "second, longer" {
		t.Fatalf("overwrite: %q, %v", got.Data, err)
	}

	if err := s.Delete("b", "k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b", "k")); !os.IsNotExist(err) {
		t.Fatalf("payload file survived delete: %v", err)
	}
	if _, err := s.Get("b", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

// TestSpillListSize: listing and sizing work off the in-memory index, same
// answers as the pure in-memory store.
func TestSpillListSize(t *testing.T) {
	s, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "a/2", []byte("x"), nil)
	s.Put("b", "a/1", []byte("y"), nil)
	s.Put("b", "c/1", []byte("z"), nil)
	keys := s.List("b", "a/")
	if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
		t.Fatalf("List = %v", keys)
	}
	if n := s.Size("b"); n != 3 {
		t.Fatalf("Size = %d, want 3", n)
	}
}

// TestSpillGetIsPrivate: a spilled payload lives in a file, so there is no
// stored slice to share — every Get reads a fresh one, and neither it nor the
// slice that was Put is the store's.
func TestSpillGetIsPrivate(t *testing.T) {
	s, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("spilled body")
	s.Put("b", "k", buf, nil)
	o1, err1 := s.Get("b", "k")
	o2, err2 := s.Get("b", "k")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if &o1.Data[0] == &buf[0] || &o1.Data[0] == &o2.Data[0] {
		t.Fatal("a spilled Get must read a fresh slice")
	}
	o1.Data[0] = 'X'
	o3, err := s.Get("b", "k")
	if err != nil || string(o3.Data) != "spilled body" || string(o2.Data) != "spilled body" {
		t.Fatalf("Get after writing to an earlier Get's slice = %q, %v", o3.Data, err)
	}
	if h, err := s.Head("b", "k"); err != nil || h.Data != nil || h.ETag == "" {
		t.Fatalf("Head = %+v, %v", h, err)
	}
}
