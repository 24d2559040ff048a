package docstore

import (
	"sync"
	"testing"
)

func TestDistinct(t *testing.T) {
	s := New()
	c := s.C("m")
	c.EnsureIndex("streamer")
	c.Insert(Doc{"streamer": "b", "ms": 1})
	c.Insert(Doc{"streamer": "a", "ms": 2})
	idDel := c.Insert(Doc{"streamer": "c", "ms": 3})
	c.Insert(Doc{"streamer": "a", "ms": 4})
	c.Insert(Doc{"ms": 5})       // field absent
	c.Insert(Doc{"streamer": 7}) // non-string value ignored
	c.Delete(idDel)              // deleted docs drop out of the index
	got := c.Distinct("streamer")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Distinct via index = %v", got)
	}
	// Unindexed field: falls back to a scan with the same semantics.
	if gotGame := c.Distinct("ms"); len(gotGame) != 0 {
		t.Fatalf("non-string Distinct = %v", gotGame)
	}
	c2 := s.C("unindexed")
	c2.Insert(Doc{"g": "y"})
	c2.Insert(Doc{"g": "x"})
	if got := c2.Distinct("g"); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Distinct via scan = %v", got)
	}
}

func TestInsertAndGet(t *testing.T) {
	s := New()
	c := s.C("measurements")
	id := c.Insert(Doc{"streamer": "s1", "ms": 45})
	if id == "" {
		t.Fatal("empty id")
	}
	d, ok := c.Get(id)
	if !ok || d["streamer"] != "s1" || d["ms"] != 45 {
		t.Fatalf("doc = %v", d)
	}
	if d.ID() != id {
		t.Fatal("ID()")
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("missing get")
	}
}

func TestInsertCopies(t *testing.T) {
	s := New()
	c := s.C("x")
	src := Doc{"a": 1}
	id := c.Insert(src)
	src["a"] = 2
	d, _ := c.Get(id)
	if d["a"] != 1 {
		t.Fatal("Insert must copy")
	}
	// Mutating the returned doc must not affect the store.
	d["a"] = 3
	d2, _ := c.Get(id)
	if d2["a"] != 1 {
		t.Fatal("Get must copy")
	}
}

func TestFindWithFilter(t *testing.T) {
	s := New()
	c := s.C("x")
	for i := 0; i < 10; i++ {
		c.Insert(Doc{"n": i})
	}
	got := c.Find(func(d Doc) bool { return d["n"].(int) >= 7 })
	if len(got) != 3 {
		t.Fatalf("found %d", len(got))
	}
	if len(c.Find(nil)) != 10 {
		t.Fatal("nil filter should match all")
	}
}

func TestFindEqWithAndWithoutIndex(t *testing.T) {
	s := New()
	c := s.C("x")
	for i := 0; i < 20; i++ {
		c.Insert(Doc{"game": []string{"lol", "dota"}[i%2], "n": i})
	}
	noIdx := c.FindEq("game", "lol")
	c.EnsureIndex("game")
	withIdx := c.FindEq("game", "lol")
	if len(noIdx) != 10 || len(withIdx) != 10 {
		t.Fatalf("lens %d, %d", len(noIdx), len(withIdx))
	}
	for i := range noIdx {
		if noIdx[i].ID() != withIdx[i].ID() {
			t.Fatal("index and scan disagree")
		}
	}
	// Index maintained across insert/update/delete.
	id := c.Insert(Doc{"game": "lol"})
	if len(c.FindEq("game", "lol")) != 11 {
		t.Fatal("index not updated on insert")
	}
	c.Update(id, Doc{"game": "dota"})
	if len(c.FindEq("game", "lol")) != 10 || len(c.FindEq("game", "dota")) != 11 {
		t.Fatal("index not updated on update")
	}
	c.Delete(id)
	if len(c.FindEq("game", "dota")) != 10 {
		t.Fatal("index not updated on delete")
	}
}

func TestUpdate(t *testing.T) {
	s := New()
	c := s.C("x")
	id := c.Insert(Doc{"a": 1})
	if !c.Update(id, Doc{"b": 2}) {
		t.Fatal("update failed")
	}
	d, _ := c.Get(id)
	if d["a"] != 1 || d["b"] != 2 {
		t.Fatalf("doc = %v", d)
	}
	// _id cannot be overwritten.
	c.Update(id, Doc{"_id": "evil"})
	if d, _ := c.Get(id); d.ID() != id {
		t.Fatal("_id overwritten")
	}
	if c.Update("missing", Doc{"a": 1}) {
		t.Fatal("update missing should fail")
	}
}

func TestDeleteAndCount(t *testing.T) {
	s := New()
	c := s.C("x")
	id := c.Insert(Doc{"a": 1})
	if c.Count() != 1 {
		t.Fatal("count")
	}
	if !c.Delete(id) || c.Delete(id) {
		t.Fatal("delete semantics")
	}
	if c.Count() != 0 {
		t.Fatal("count after delete")
	}
}

func TestCollections(t *testing.T) {
	s := New()
	s.C("b")
	s.C("a")
	s.C("b")
	got := s.Collections()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("collections = %v", got)
	}
}

func TestConcurrentInserts(t *testing.T) {
	s := New()
	c := s.C("x")
	c.EnsureIndex("g")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Insert(Doc{"g": g, "i": i})
				c.FindEq("g", g)
			}
		}(g)
	}
	wg.Wait()
	if c.Count() != 800 {
		t.Fatalf("count = %d", c.Count())
	}
	// IDs unique.
	seen := map[string]bool{}
	for _, d := range c.Find(nil) {
		if seen[d.ID()] {
			t.Fatal("duplicate id")
		}
		seen[d.ID()] = true
	}
}

func TestFindAfterCursor(t *testing.T) {
	s := New()
	c := s.C("m")
	for i := 0; i < 5; i++ {
		c.Insert(Doc{"i": i})
	}
	first, seq := c.FindAfter(0)
	if len(first) != 5 {
		t.Fatalf("initial batch = %d docs, want 5", len(first))
	}
	for i, d := range first {
		if d["i"] != i {
			t.Fatalf("doc %d out of insertion order: %v", i, d["i"])
		}
	}
	// Drained: same cursor returns nothing.
	if again, seq2 := c.FindAfter(seq); len(again) != 0 || seq2 != seq {
		t.Fatalf("drained cursor returned %d docs, seq %d->%d", len(again), seq, seq2)
	}
	c.Insert(Doc{"i": 5})
	c.Insert(Doc{"i": 6})
	next, seq3 := c.FindAfter(seq)
	if len(next) != 2 || next[0]["i"] != 5 || next[1]["i"] != 6 {
		t.Fatalf("incremental batch wrong: %v", next)
	}
	if seq3 <= seq {
		t.Fatalf("sequence did not advance: %d -> %d", seq, seq3)
	}
	// Copies, not aliases.
	next[0]["i"] = 99
	if d, _ := c.Get(next[0].ID()); d["i"] == 99 {
		t.Fatal("FindAfter returned aliased document")
	}

	// A document deleted inside the tail is skipped, not a gap that ends it.
	c.Insert(Doc{"i": 7})
	gone := c.Insert(Doc{"i": 8})
	c.Insert(Doc{"i": 9})
	c.Delete(gone)
	tail, seq4 := c.FindAfter(seq3)
	if len(tail) != 2 || tail[0]["i"] != 7 || tail[1]["i"] != 9 {
		t.Fatalf("tail around a deleted document: %v", tail)
	}
	if seq4 != seq3+3 {
		t.Fatalf("sequence %d -> %d, want +3 (deleted IDs still count)", seq3, seq4)
	}

	// The walk starts at the cursor: a 3-document tail costs the same behind
	// 10,000 documents as behind 1,000.
	tailAllocs := func(prefix int) float64 {
		c := New().C("m")
		for i := 0; i < prefix; i++ {
			c.Insert(Doc{"i": i})
		}
		_, seq := c.FindAfter(0)
		for i := 0; i < 3; i++ {
			c.Insert(Doc{"i": prefix + i})
		}
		return testing.AllocsPerRun(20, func() {
			if docs, _ := c.FindAfter(seq); len(docs) != 3 || docs[0]["i"] != prefix {
				t.Fatalf("tail behind %d documents: %v", prefix, docs)
			}
		})
	}
	if small, large := tailAllocs(1000), tailAllocs(10000); large > small {
		t.Fatalf("FindAfter allocates %.0f times behind 10,000 documents, %.0f behind 1,000", large, small)
	}
}
