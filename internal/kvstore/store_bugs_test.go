package kvstore

import (
	"strconv"
	"testing"
	"time"
)

// Regression tests for the latent store bugs durability exposed: pinned
// list backing arrays and ghost entries for drained lists/hashes.

func TestDrainedListEntryDeleted(t *testing.T) {
	s := New()
	s.RPush("q", "a", "b")
	s.LPop("q")
	s.LPop("q")
	if n := s.Len(); n != 0 {
		t.Fatalf("drained list still counted: Len = %d", n)
	}
	if s.Del("q") {
		t.Fatal("Del of a drained list reported a removal")
	}
	// The key is fully reusable.
	s.RPush("q", "again")
	if v, ok := s.LPop("q"); !ok || v != "again" {
		t.Fatal("reuse after drain")
	}
}

func TestDrainedHashEntryDeleted(t *testing.T) {
	s := New()
	s.HSet("h", "f", "v")
	if !s.HDel("h", "f") {
		t.Fatal("HDel of existing field returned false")
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("drained hash still counted: Len = %d", n)
	}
	if s.HDel("h", "f") {
		t.Fatal("HDel of missing field returned true")
	}
	if s.Del("h") {
		t.Fatal("Del of a drained hash reported a removal")
	}
}

func TestHSetReportsCreation(t *testing.T) {
	s := New()
	if !s.HSet("h", "f", "v1") {
		t.Fatal("first HSet should report created")
	}
	if s.HSet("h", "f", "v2") {
		t.Fatal("overwrite should not report created")
	}
	if v, _ := s.HGet("h", "f"); v != "v2" {
		t.Fatal("overwrite lost the value")
	}
}

func TestListPoppedPrefixReleasedAndCompacted(t *testing.T) {
	s := New()
	const n = 4096
	for i := 0; i < n; i++ {
		s.RPush("q", strconv.Itoa(i))
	}
	for i := 0; i < n-100; i++ {
		if _, ok := s.LPop("q"); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	s.mu.RLock()
	l := s.lists["q"]
	// Popped slots below head must be blanked (string released)...
	for i := 0; i < l.head; i++ {
		if l.elems[i] != "" {
			s.mu.RUnlock()
			t.Fatalf("popped slot %d still pins %q", i, l.elems[i])
		}
	}
	// ...and the prefix compacted away, not accumulated: with 100 live
	// elements the backing array must not still hold thousands of slots.
	if len(l.elems) > 2*(l.len()+32) {
		s.mu.RUnlock()
		t.Fatalf("backing array not compacted: %d slots for %d live elements",
			len(l.elems), l.len())
	}
	s.mu.RUnlock()
	// Sustained push/pop at steady state keeps the array bounded — the
	// dl:queue pattern that used to grow without bound.
	for i := 0; i < 10000; i++ {
		s.RPush("q", "x")
		s.LPop("q")
	}
	s.mu.RLock()
	l = s.lists["q"]
	bound := 2*(l.len()+32) + 10000/8 // generous slack for append growth
	if len(l.elems) > bound {
		s.mu.RUnlock()
		t.Fatalf("steady-state backing array grew to %d slots for %d live elements",
			len(l.elems), l.len())
	}
	s.mu.RUnlock()
}

func TestServerHGetAllSortedWire(t *testing.T) {
	_, cl := newServerClient(t)
	for _, f := range []string{"zeta", "alpha", "mid"} {
		if _, err := cl.Do("HSET", "h", f, "v-"+f); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 5; try++ {
		rep, err := cl.Do("HGETALL", "h")
		if err != nil || len(rep.Array) != 6 {
			t.Fatalf("hgetall = %+v, %v", rep, err)
		}
		want := []string{"alpha", "mid", "zeta"}
		for i, f := range want {
			if rep.Array[2*i].Str != f {
				t.Fatalf("field %d = %q, want %q (wire order must be sorted)",
					i, rep.Array[2*i].Str, f)
			}
		}
	}
}

func TestServerHSetHDelCounts(t *testing.T) {
	_, cl := newServerClient(t)
	if rep, _ := cl.Do("HSET", "h", "f", "v1"); rep.Int != 1 {
		t.Fatalf("HSET create = %d, want 1", rep.Int)
	}
	if rep, _ := cl.Do("HSET", "h", "f", "v2"); rep.Int != 0 {
		t.Fatalf("HSET overwrite = %d, want 0", rep.Int)
	}
	if rep, _ := cl.Do("HDEL", "h", "f"); rep.Int != 1 {
		t.Fatalf("HDEL existing = %d, want 1", rep.Int)
	}
	if rep, _ := cl.Do("HDEL", "h", "f"); rep.Int != 0 {
		t.Fatalf("HDEL missing = %d, want 0", rep.Int)
	}
}

func TestClientRedialResumes(t *testing.T) {
	st := New()
	srv, err := Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.MaxRedials = 50
	cl.RedialWait = 10 * time.Millisecond
	if err := cl.Set("a", "1"); err != nil {
		t.Fatal(err)
	}
	// Crash the server, restart on the same address with the same store.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(st, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// The client redials transparently and resumes.
	v, ok, err := cl.Get("a")
	if err != nil || !ok || v != "1" {
		t.Fatalf("get after restart = %q %v %v", v, ok, err)
	}
}
