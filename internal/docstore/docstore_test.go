package docstore

import (
	"fmt"
	"sync"
	"testing"
)

func TestDistinct(t *testing.T) {
	s := New()
	c := s.C("m")
	c.EnsureIndex("streamer")
	c.Insert(Doc{"streamer": "b", "ms": 1})
	c.Insert(Doc{"streamer": "a", "ms": 2})
	c.Insert(Doc{"streamer": "a", "ms": 4})
	c.Insert(Doc{"ms": 5})       // field absent
	c.Insert(Doc{"streamer": 7}) // non-string value ignored
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
	if id != "doc00000001" {
		t.Fatalf("first id = %q", id)
	}
	if id2 := c.Insert(Doc{"streamer": "s2"}); id2 != "doc00000002" {
		t.Fatalf("second id = %q", id2)
	}
	all := c.Find(nil)
	if len(all) != 2 || all[0]["streamer"] != "s1" || all[0]["ms"] != 45 || all[0]["_id"] != id {
		t.Fatalf("docs = %v", all)
	}
	if s.C("measurements") != c || len(s.C("other").Find(nil)) != 0 {
		t.Fatal("C must return the same collection per name and a fresh one otherwise")
	}
}

func TestInsertCopies(t *testing.T) {
	s := New()
	c := s.C("x")
	src := Doc{"a": 1}
	c.EnsureIndex("a")
	c.Insert(src)
	src["a"] = 2
	// Mutating a returned doc must not affect the store, whichever read
	// returned it.
	reads := map[string]func() []Doc{
		"Find":      func() []Doc { return c.Find(nil) },
		"FindEq":    func() []Doc { return c.FindEq("a", 1) },
		"FindAfter": func() []Doc { docs, _ := c.FindAfter(0); return docs },
	}
	for name, read := range reads {
		d := read()
		if len(d) != 1 || d[0]["a"] != 1 {
			t.Fatalf("%s = %v: Insert must copy", name, d)
		}
		d[0]["a"] = 3
		if again := read(); again[0]["a"] != 1 {
			t.Fatalf("%s must copy", name)
		}
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
	// Both paths return insertion order: n = 0, 2, 4, ...
	for i := range noIdx {
		if noIdx[i]["n"] != 2*i || withIdx[i]["n"] != 2*i || noIdx[i]["_id"] != withIdx[i]["_id"] {
			t.Fatalf("result %d: scan %v, index %v, want n=%d from both", i, noIdx[i], withIdx[i], 2*i)
		}
	}
	// The index follows later inserts.
	c.Insert(Doc{"game": "lol", "n": 20})
	if got := c.FindEq("game", "lol"); len(got) != 11 || got[10]["n"] != 20 {
		t.Fatal("index not updated on insert")
	}
	if got := c.FindEq("game", "none"); len(got) != 0 {
		t.Fatalf("FindEq of an absent value = %v", got)
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
	all := c.Find(nil)
	if len(all) != 800 {
		t.Fatalf("count = %d", len(all))
	}
	// IDs unique.
	seen := map[any]bool{}
	for _, d := range all {
		if seen[d["_id"]] {
			t.Fatal("duplicate id")
		}
		seen[d["_id"]] = true
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
	if again, _ := c.FindAfter(seq); again[0]["i"] != 5 {
		t.Fatal("FindAfter returned aliased document")
	}
	// A cursor from the future or the past of the sequence is harmless.
	if docs, at := c.FindAfter(seq3 + 10); len(docs) != 0 || at != seq3 {
		t.Fatalf("cursor past the end = %d docs, seq %d", len(docs), at)
	}
	if docs, _ := c.FindAfter(-1); len(docs) != seq3 {
		t.Fatalf("negative cursor = %d docs, want all %d", len(docs), seq3)
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

// TestConcurrentInsertAndCursor: a reader tailing the collection with
// FindAfter while writers insert sees every document exactly once, in
// sequence order; run with -race.
func TestConcurrentInsertAndCursor(t *testing.T) {
	c := New().C("m")
	c.EnsureIndex("g")
	const writers, each = 4, 250
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Insert(Doc{"g": g, "i": i})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var got []Doc
	seq := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last read below drains what the writers left
		default:
		}
		docs, next := c.FindAfter(seq)
		if next != seq+len(docs) {
			t.Fatalf("cursor %d -> %d with %d docs", seq, next, len(docs))
		}
		got, seq = append(got, docs...), next
	}
	if len(got) != writers*each {
		t.Fatalf("tailed %d documents, want %d", len(got), writers*each)
	}
	last := map[any]int{}
	for n, d := range got {
		if want := fmt.Sprintf("doc%08d", n+1); d["_id"] != want {
			t.Fatalf("document %d has _id %v, want %s", n, d["_id"], want)
		}
		if prev, ok := last[d["g"]]; ok && d["i"].(int) != prev+1 {
			t.Fatalf("writer %v: i=%v after i=%d", d["g"], d["i"], prev)
		}
		last[d["g"]] = d["i"].(int)
	}
}
