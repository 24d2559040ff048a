package objstore

import (
	"bytes"
	"reflect"
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

// TestGetSharesStoredSlice (was TestGetIsACopy): the store hands payloads on,
// it does not copy them. Every Get of a key returns the very slice and map
// that were Put — so a thumbnail is allocated once, by the downloader — and
// Head returns no payload at all.
func TestGetSharesStoredSlice(t *testing.T) {
	s := New()
	buf := []byte("abc")
	meta := map[string]string{"game": "lol"}
	etag := s.Put("b", "k", buf, meta)
	o1, err1 := s.Get("b", "k")
	o2, err2 := s.Get("b", "k")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if &o1.Data[0] != &buf[0] || &o2.Data[0] != &buf[0] || len(o1.Data) != 3 || len(o2.Data) != 3 {
		t.Fatal("Get must return the slice that was Put, not a copy")
	}
	if same := reflect.ValueOf(meta).Pointer(); reflect.ValueOf(o1.Meta).Pointer() != same || reflect.ValueOf(o2.Meta).Pointer() != same {
		t.Fatal("Get must return the meta map that was Put, not a copy")
	}
	if o1 == o2 {
		t.Fatal("two Gets returned one *Object: a caller could edit the other's fields")
	}
	h, err := s.Head("b", "k")
	if err != nil || h.Data != nil || h.ETag == "" || h.ETag != etag || h.Meta["game"] != "lol" {
		t.Fatalf("Head = %+v, %v; want no data, etag %q", h, err, etag)
	}
}

// TestPutTakesOwnership (was TestPutDataIsCopied): a Put over an existing key
// installs the new slice and leaves the old one alone, and so does Delete —
// a reader still holding the slice an earlier Get returned keeps reading the
// bytes it was given. Nothing in the store ever writes to a payload.
func TestPutTakesOwnership(t *testing.T) {
	s := New()
	first := []byte("first body")
	s.Put("b", "k", first, nil)
	held, err := s.Get("b", "k")
	if err != nil {
		t.Fatal(err)
	}

	second := []byte("SECOND")
	s.Put("b", "k", second, nil)
	cur, err := s.Get("b", "k")
	if err != nil {
		t.Fatal(err)
	}
	if &cur.Data[0] != &second[0] || string(cur.Data) != "SECOND" {
		t.Fatalf("Get after re-Put = %q, want the second slice itself", cur.Data)
	}
	if string(held.Data) != "first body" || string(first) != "first body" {
		t.Fatalf("re-Put wrote into the slice an earlier Get returned: %q", held.Data)
	}

	if err := s.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if string(held.Data) != "first body" || string(cur.Data) != "SECOND" {
		t.Fatalf("Delete wrote into a slice a Get returned: %q, %q", held.Data, cur.Data)
	}
	if _, err := s.Get("b", "k"); err != ErrNotFound {
		t.Fatalf("Get after Delete = %v", err)
	}
}

// TestSharedPayloadUnderRace: readers, a re-Putter and a Deleter on one key.
// Every payload is one repeated byte, so a reader that ever saw a slice the
// store (or another Put) wrote into would find two different bytes in it;
// under -race any such write is reported outright.
func TestSharedPayloadUnderRace(t *testing.T) {
	s := New()
	const size = 4096
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var held []*Object // slices kept across later Puts and Deletes
			for {
				select {
				case <-stop:
					return
				default:
				}
				if o, err := s.Get("b", "k"); err == nil {
					held = append(held, o)
				}
				if len(held) > 32 {
					held = held[1:]
				}
				for _, o := range held {
					if len(o.Data) != size || bytes.Count(o.Data, o.Data[:1]) != size {
						t.Errorf("payload of version %q is not uniform", o.Meta["v"])
						return
					}
				}
			}
		}()
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 400; i++ {
			s.Put("b", "k", bytes.Repeat([]byte{byte(i)}, size), map[string]string{"v": string(rune('a' + i%26))})
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 400; i++ {
			s.Delete("b", "k") //nolint:errcheck // racing the Putter: not found is expected
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
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
