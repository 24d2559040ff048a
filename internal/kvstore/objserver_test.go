package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tero/internal/objstore"
)

func newObjectServerClient(t *testing.T) (*Server, *objstore.Store, *RemoteObjects) {
	t.Helper()
	srv, err := Serve(New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	backing := objstore.New()
	srv.AttachObjects(backing)
	ro, err := DialObjects(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	return srv, backing, ro
}

// TestObjectWireRoundTrip drives the object frame over the RESP wire: a
// binary-safe payload, its metadata and its etag must all match what the
// backing store holds afterwards.
func TestObjectWireRoundTrip(t *testing.T) {
	_, backing, ro := newObjectServerClient(t)

	// Payload with every byte class RESP framing could trip on.
	data := []byte("P5\r\n\x00\xff bulk$*-1\r\nframes")
	meta := map[string]string{"streamer": "s1", "game": "Overwatch 2", "at": "2024-01-01T00:00:00Z"}
	etag, err := ro.Put("thumbs", "s1/000017.pgm", data, meta)
	if err != nil || etag == "" {
		t.Fatalf("Put = %q, %v", etag, err)
	}
	got, err := backing.Get("thumbs", "s1/000017.pgm")
	if err != nil {
		t.Fatalf("backing store missed the put: %v", err)
	}
	if got.ETag != etag {
		t.Fatalf("etag over wire %q != backing %q", etag, got.ETag)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatalf("payload corrupted over wire: %q != %q", got.Data, data)
	}
	if len(got.Meta) != len(meta) {
		t.Fatalf("meta = %v, want %v", got.Meta, meta)
	}
	for k, v := range meta {
		if got.Meta[k] != v {
			t.Fatalf("meta[%s] = %q, want %q", k, got.Meta[k], v)
		}
	}

	// No metadata is no metadata, and buckets stay apart.
	if _, err := ro.Put("thumbs", "s1/000002.pgm", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Put("other", "s1/000099.pgm", []byte("y"), nil); err != nil {
		t.Fatal(err)
	}
	if keys := backing.List("thumbs", "s1/"); len(keys) != 2 ||
		keys[0] != "s1/000002.pgm" || keys[1] != "s1/000017.pgm" {
		t.Fatalf("thumbs holds %v", keys)
	}
	if o, err := backing.Get("thumbs", "s1/000002.pgm"); err != nil || len(o.Meta) != 0 {
		t.Fatalf("bare put = %+v, %v", o, err)
	}

	// A frame the arity check refuses stores nothing.
	for _, bad := range [][]string{
		{"OPUT", "thumbs", "k"},                     // no data
		{"OPUT", "thumbs", "k", "data", "dangling"}, // metadata field without a value
	} {
		if rep, err := ro.c.Do(bad...); err == nil || !strings.HasPrefix(rep.Str, "ERR OPUT needs") {
			t.Fatalf("%v = %s, %v; want the arity error", bad, render(rep), err)
		}
	}
	if n := backing.Size("thumbs"); n != 2 {
		t.Fatalf("thumbs holds %d objects after refused frames, want 2", n)
	}
}

// TestObjectWireNoStore: the object frame against a server without an
// attached object store fails loudly instead of pretending.
func TestObjectWireNoStore(t *testing.T) {
	srv, err := Serve(New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if rep, err := cl.Do("OPUT", "thumbs", "k", "data"); err == nil || rep.Str != "ERR no object store attached" {
		t.Fatalf("OPUT without an attached object store = %s, %v", render(rep), err)
	}
	ro := &RemoteObjects{c: cl}
	if etag, err := ro.Put("thumbs", "k", []byte("data"), nil); err == nil || etag != "" {
		t.Fatalf("Put without an attached object store = %q, %v", etag, err)
	}
}

// TestLPopClaimContention is the distributed claim race in miniature: many
// real client connections hammer LPOP on one queue — as a teroworker fleet
// does at the top of every round — and every item must be claimed exactly
// once. Runs under -race via the normal test build.
func TestLPopClaimContention(t *testing.T) {
	srv, cl := newServerClient(t)

	const items = 1000
	const clients = 8
	vals := make([]string, items)
	for i := range vals {
		vals[i] = "item-" + strconv.Itoa(i)
	}
	if rep, err := cl.Do(append([]string{"RPUSH", "q"}, vals...)...); err != nil || rep.Int != items {
		t.Fatalf("seed RPUSH: %v %v", rep, err)
	}

	claims := make([][]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			conn, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for {
				rep, err := conn.Do("LPOP", "q")
				if err != nil {
					t.Errorf("client %d LPOP: %v", c, err)
					return
				}
				if rep.Null {
					return // drained
				}
				claims[c] = append(claims[c], rep.Str)
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[string]int, items)
	total := 0
	for c := range claims {
		total += len(claims[c])
		for _, v := range claims[c] {
			seen[v]++
		}
	}
	if total != items {
		t.Fatalf("claimed %d items, want %d", total, items)
	}
	for i := range vals {
		if n := seen[vals[i]]; n != 1 {
			t.Fatalf("%s claimed %d times", vals[i], n)
		}
	}
	if rep, err := cl.Do("LLEN", "q"); err != nil || rep.Int != 0 {
		t.Fatalf("queue not drained: %v %v", rep, err)
	}
	// The race only counts as exercised if the pops actually interleaved.
	busiest, idlest := 0, items
	for c := range claims {
		if len(claims[c]) > busiest {
			busiest = len(claims[c])
		}
		if len(claims[c]) < idlest {
			idlest = len(claims[c])
		}
	}
	t.Logf("claim spread across %d clients: min %d, max %d", clients, idlest, busiest)
	if busiest == items {
		fmt.Println("warning: one client claimed everything; contention not exercised")
	}
}
