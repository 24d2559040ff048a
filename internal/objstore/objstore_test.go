package objstore

import (
	"bytes"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	etag := s.Put("thumbs", "user1/0001.img", []byte("data"), map[string]string{"game": "lol"})
	if etag == "" {
		t.Fatal("empty etag")
	}
	o, err := s.Get("thumbs", "user1/0001.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o.Data, []byte("data")) || o.Meta["game"] != "lol" || o.ETag != etag {
		t.Fatalf("object = %+v", o)
	}
}

func TestGetIsACopy(t *testing.T) {
	s := New()
	s.Put("b", "k", []byte("abc"), nil)
	o, _ := s.Get("b", "k")
	o.Data[0] = 'X'
	o2, _ := s.Get("b", "k")
	if o2.Data[0] != 'a' {
		t.Fatal("Get must return a copy")
	}
}

func TestPutDataIsCopied(t *testing.T) {
	s := New()
	buf := []byte("abc")
	s.Put("b", "k", buf, nil)
	buf[0] = 'X'
	o, _ := s.Get("b", "k")
	if o.Data[0] != 'a' {
		t.Fatal("Put must copy the data")
	}
}

func TestOverwriteChangesETag(t *testing.T) {
	s := New()
	e1 := s.Put("b", "k", []byte("v1"), nil)
	e2 := s.Put("b", "k", []byte("v2"), nil)
	if e1 == e2 {
		t.Fatal("etag should change with content")
	}
	if s.Size("b") != 1 {
		t.Fatal("overwrite must not duplicate")
	}
}

func TestHeadOmitsData(t *testing.T) {
	s := New()
	s.Put("b", "k", []byte("data"), nil)
	h, err := s.Head("b", "k")
	if err != nil || h.Data != nil || h.ETag == "" {
		t.Fatalf("head = %+v, %v", h, err)
	}
	if _, err := s.Head("b", "missing"); err != ErrNotFound {
		t.Fatal("missing head")
	}
}

func TestDeleteAndList(t *testing.T) {
	s := New()
	s.Put("b", "a/1", nil, nil)
	s.Put("b", "a/2", nil, nil)
	s.Put("b", "c/3", nil, nil)
	if got := s.List("b", "a/"); len(got) != 2 || got[0] != "a/1" {
		t.Fatalf("list = %v", got)
	}
	if err := s.Delete("b", "a/1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("b", "a/1"); err != ErrNotFound {
		t.Fatal("double delete")
	}
	if err := s.Delete("nobucket", "x"); err != ErrNotFound {
		t.Fatal("missing bucket delete")
	}
	if s.Size("b") != 2 {
		t.Fatalf("size = %d", s.Size("b"))
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := string(rune('a'+g)) + "key"
				s.Put("b", key, []byte{byte(i)}, nil)
				s.Get("b", key)
				s.List("b", "")
			}
		}(g)
	}
	wg.Wait()
	if s.Size("b") != 8 {
		t.Fatalf("size = %d", s.Size("b"))
	}
}
