package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestTableMatchesLinearScan inserts seeded random rows and, after every
// insert, checks each read against a linear scan of everything inserted so
// far: Of per streamer (and for one never inserted), Streamers, After at a
// random cursor (negative and past the end included), and Find's rendering.
func TestTableMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streamers := []string{"anon-a", "anon-b", "anon-c", "anon-d", "anon-e"}
	s := New()
	var all []Measurement
	for n := 0; n < 400; n++ {
		m := Measurement{
			Streamer: streamers[rng.Intn(len(streamers))],
			Game:     []string{"lol", "dota", "cs"}[rng.Intn(3)],
			AtUnix:   int64(rng.Intn(1000)),
			Ms:       float64(rng.Intn(200)),
			Alt:      float64(rng.Intn(200)),
			HasAlt:   rng.Intn(3) == 0,
			Trace:    fmt.Sprintf("tp%d", rng.Intn(5)),
		}
		s.Insert(m)
		all = append(all, m)

		distinct := map[string]bool{}
		for _, st := range append(streamers, "anon-never") {
			var want []Measurement
			for _, r := range all {
				if r.Streamer == st {
					want = append(want, r)
					distinct[st] = true
				}
			}
			if got := s.Of(st); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("after %d inserts: Of(%s) = %d rows, scan finds %d", n+1, st, len(got), len(want))
			}
		}
		var want []string
		for st := range distinct {
			want = append(want, st)
		}
		sort.Strings(want)
		if got := s.Streamers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d inserts: Streamers = %v, scan finds %v", n+1, got, want)
		}

		seq := rng.Intn(len(all)+4) - 2
		rows, next := s.After(seq)
		from := min(max(seq, 0), len(all))
		if next != len(all) || len(rows) != len(all)-from || (len(rows) > 0 && !reflect.DeepEqual(rows, all[from:])) {
			t.Fatalf("after %d inserts: After(%d) = %d rows, next %d", n+1, seq, len(rows), next)
		}
	}

	docs := s.Find(nil)
	if len(docs) != len(all) {
		t.Fatalf("Find(nil) = %d docs, want %d", len(docs), len(all))
	}
	for i, d := range docs {
		m := all[i]
		want := Doc{"streamer": m.Streamer, "game": m.Game, "at": time.Unix(m.AtUnix, 0).UTC().Format(time.RFC3339), "ms": m.Ms}
		if m.HasAlt {
			want["alt"] = m.Alt
		}
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("Find row %d = %v, want %v", i, d, want)
		}
	}
	if got := s.C("any name").Find(func(d Doc) bool { return d["game"] == "cs" }); len(got) == 0 || len(got) == len(all) {
		t.Fatalf("filtered Find = %d of %d rows", len(got), len(all))
	}
}

// TestDistinct: Streamers lists each streamer with a row once, sorted, and
// no streamer that has none.
func TestDistinct(t *testing.T) {
	s := New()
	if got := s.Streamers(); len(got) != 0 {
		t.Fatalf("Streamers of an empty table = %v", got)
	}
	for _, st := range []string{"anon-b", "anon-a", "anon-a", "anon-c", "anon-b"} {
		s.Insert(Measurement{Streamer: st})
	}
	if got := s.Streamers(); !reflect.DeepEqual(got, []string{"anon-a", "anon-b", "anon-c"}) {
		t.Fatalf("Streamers = %v", got)
	}
}

// TestInsertAndGet: rows come back in insertion order, whole, from every
// read; C returns the one table whatever the name.
func TestInsertAndGet(t *testing.T) {
	s := New()
	first := Measurement{Streamer: "anon-1", Game: "lol",
		AtUnix: 1704067200, Ms: 45, Alt: 47, HasAlt: true, Trace: "tp"}
	second := Measurement{Streamer: "anon-2", Game: "dota", Ms: 60}
	s.Insert(first)
	s.Insert(second)
	if rows, next := s.After(0); next != 2 || !reflect.DeepEqual(rows, []Measurement{first, second}) {
		t.Fatalf("After(0) = %+v, next %d", rows, next)
	}
	if rows := s.Of("anon-1"); !reflect.DeepEqual(rows, []Measurement{first}) {
		t.Fatalf("Of(anon-1) = %+v", rows)
	}
	all := s.Find(nil)
	if len(all) != 2 || all[0]["streamer"] != "anon-1" || all[0]["ms"] != 45.0 || all[0]["alt"] != 47.0 {
		t.Fatalf("docs = %v", all)
	}
	if _, ok := all[1]["alt"]; ok {
		t.Fatalf("a row without HasAlt renders alt: %v", all[1])
	}
	if s.C("measurements") != s || s.C("other") != s {
		t.Fatal("C must return the table whatever the name")
	}
}

// TestFindRendersTheStamp: Find's "at" is the UTC RFC 3339 stamp the row's
// AtUnix was parsed from, whatever zone the stamp was read in — the bytes the
// downloader stores in a thumbnail's "at" metadata.
func TestFindRendersTheStamp(t *testing.T) {
	s := New()
	stamps := []string{"2026-01-01T20:00:00Z", "1970-01-01T00:00:01Z", "2026-10-19T23:59:59+02:00"}
	for _, stamp := range stamps {
		at, err := time.Parse(time.RFC3339, stamp)
		if err != nil {
			t.Fatal(err)
		}
		s.Insert(Measurement{Streamer: "anon-a", AtUnix: at.Unix()})
	}
	want := []string{"2026-01-01T20:00:00Z", "1970-01-01T00:00:01Z", "2026-10-19T21:59:59Z"}
	for i, d := range s.Find(nil) {
		if d["at"] != want[i] {
			t.Errorf("row %d (stamped %s): at %v, want %s", i, stamps[i], d["at"], want[i])
		}
	}
}

// TestFindWithFilter: Find keeps the rows its filter accepts, in insertion
// order; a nil filter keeps them all.
func TestFindWithFilter(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Insert(Measurement{Streamer: "anon-a", Ms: float64(i)})
	}
	got := s.Find(func(d Doc) bool { return d["ms"].(float64) >= 7 })
	if len(got) != 3 || got[0]["ms"] != 7.0 || got[2]["ms"] != 9.0 {
		t.Fatalf("found %v", got)
	}
	if len(s.Find(nil)) != 10 {
		t.Fatal("nil filter should match all")
	}
}

// TestFindEqWithAndWithoutIndex: Of, read through the per-streamer index,
// returns what a scan of After(0) finds, in insertion order; the index
// follows later inserts, and an absent streamer has no rows.
func TestFindEqWithAndWithoutIndex(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		s.Insert(Measurement{Streamer: []string{"anon-a", "anon-b"}[i%2], Ms: float64(i)})
	}
	scan := func(streamer string) []Measurement {
		rows, _ := s.After(0)
		var out []Measurement
		for _, m := range rows {
			if m.Streamer == streamer {
				out = append(out, m)
			}
		}
		return out
	}
	withIdx, noIdx := s.Of("anon-a"), scan("anon-a")
	if len(withIdx) != 10 || !reflect.DeepEqual(withIdx, noIdx) {
		t.Fatalf("Of = %d rows, scan = %d rows", len(withIdx), len(noIdx))
	}
	// Insertion order: ms = 0, 2, 4, ...
	for i, m := range withIdx {
		if m.Ms != float64(2*i) {
			t.Fatalf("row %d: ms=%v, want %d", i, m.Ms, 2*i)
		}
	}
	s.Insert(Measurement{Streamer: "anon-a", Ms: 20})
	if got := s.Of("anon-a"); len(got) != 11 || got[10].Ms != 20 {
		t.Fatal("index not updated on insert")
	}
	if got := s.Of("anon-none"); len(got) != 0 {
		t.Fatalf("Of an absent streamer = %v", got)
	}
}

// TestConcurrentInserts: concurrent writers that read their own rows lose
// no row and store none twice; run with -race.
func TestConcurrentInserts(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			streamer := fmt.Sprintf("anon-%d", g)
			for i := 0; i < 100; i++ {
				s.Insert(Measurement{Streamer: streamer, Ms: float64(i)})
				s.Of(streamer)
			}
		}(g)
	}
	wg.Wait()
	all, _ := s.After(0)
	if len(all) != 800 {
		t.Fatalf("count = %d", len(all))
	}
	seen := map[Measurement]bool{}
	for _, m := range all {
		if seen[m] {
			t.Fatalf("duplicate row %+v", m)
		}
		seen[m] = true
	}
	if got := s.Streamers(); len(got) != 8 {
		t.Fatalf("Streamers = %v", got)
	}
}

// TestFindAfterCursor: After returns the rows past the cursor in insertion
// order plus the next cursor; a drained cursor returns nothing, a cursor
// before the start or past the end is clamped, and the copy starts at the
// cursor, so a short tail costs the same behind any number of rows.
func TestFindAfterCursor(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Insert(Measurement{Ms: float64(i)})
	}
	first, seq := s.After(0)
	if len(first) != 5 || seq != 5 {
		t.Fatalf("initial batch = %d rows, next %d; want 5, 5", len(first), seq)
	}
	for i, m := range first {
		if m.Ms != float64(i) {
			t.Fatalf("row %d out of insertion order: %v", i, m.Ms)
		}
	}
	if again, seq2 := s.After(seq); len(again) != 0 || seq2 != seq {
		t.Fatalf("drained cursor returned %d rows, seq %d->%d", len(again), seq, seq2)
	}
	s.Insert(Measurement{Ms: 5})
	s.Insert(Measurement{Ms: 6})
	next, seq3 := s.After(seq)
	if len(next) != 2 || next[0].Ms != 5 || next[1].Ms != 6 || seq3 != 7 {
		t.Fatalf("incremental batch = %+v, next %d", next, seq3)
	}
	next[0].Ms = 99
	if again, _ := s.After(seq); again[0].Ms != 5 {
		t.Fatal("After returned an aliased row")
	}
	if rows, at := s.After(seq3 + 10); len(rows) != 0 || at != seq3 {
		t.Fatalf("cursor past the end = %d rows, seq %d", len(rows), at)
	}
	if rows, _ := s.After(-1); len(rows) != seq3 {
		t.Fatalf("negative cursor = %d rows, want all %d", len(rows), seq3)
	}

	tailAllocs := func(prefix int) float64 {
		s := New()
		for i := 0; i < prefix; i++ {
			s.Insert(Measurement{Ms: float64(i)})
		}
		_, seq := s.After(0)
		for i := 0; i < 3; i++ {
			s.Insert(Measurement{Ms: float64(prefix + i)})
		}
		return testing.AllocsPerRun(20, func() {
			if rows, _ := s.After(seq); len(rows) != 3 || rows[0].Ms != float64(prefix) {
				t.Fatalf("tail behind %d rows: %+v", prefix, rows)
			}
		})
	}
	if small, large := tailAllocs(1000), tailAllocs(10000); large > small {
		t.Fatalf("After allocates %.0f times behind 10,000 rows, %.0f behind 1,000", large, small)
	}
}

// TestInsertCopies: writing to the inserted value, or to a row any read
// returned, leaves the table unchanged; and a read allocates one slice, not
// one copy per row.
func TestInsertCopies(t *testing.T) {
	s := New()
	src := Measurement{Streamer: "anon-a", Game: "lol", Ms: 45}
	s.Insert(src)
	src.Ms = 99
	reads := map[string]func() []Measurement{
		"Of":    func() []Measurement { return s.Of("anon-a") },
		"After": func() []Measurement { rows, _ := s.After(0); return rows },
	}
	for name, read := range reads {
		rows := read()
		if len(rows) != 1 || rows[0].Ms != 45 {
			t.Fatalf("%s = %+v: Insert must copy", name, rows)
		}
		rows[0].Ms, rows[0].Streamer = 3, "anon-z"
		if again := read(); again[0].Ms != 45 || again[0].Streamer != "anon-a" {
			t.Fatalf("%s must copy", name)
		}
	}
	for i := 0; i < 999; i++ {
		s.Insert(Measurement{Streamer: "anon-a"})
	}
	for name, read := range reads {
		if allocs := testing.AllocsPerRun(20, func() { read() }); allocs > 1 {
			t.Fatalf("%s of 1,000 rows allocates %.0f times, want one slice", name, allocs)
		}
	}
}

// TestConcurrentInsertAndCursor: a reader tailing the table with After while
// writers insert (and read their own rows) sees every row exactly once, in
// sequence order; run with -race.
func TestConcurrentInsertAndCursor(t *testing.T) {
	s := New()
	const writers, each = 4, 250
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			streamer := fmt.Sprintf("anon-%d", g)
			for i := 0; i < each; i++ {
				s.Insert(Measurement{Streamer: streamer, Ms: float64(i)})
				if n := len(s.Of(streamer)); n != i+1 {
					t.Errorf("writer %d: Of = %d rows after %d inserts", g, n, i+1)
				}
				s.Streamers()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var got []Measurement
	seq := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last read below drains what the writers left
		default:
		}
		rows, next := s.After(seq)
		if next != seq+len(rows) {
			t.Fatalf("cursor %d -> %d with %d rows", seq, next, len(rows))
		}
		got, seq = append(got, rows...), next
	}
	if len(got) != writers*each {
		t.Fatalf("tailed %d rows, want %d", len(got), writers*each)
	}
	last := map[string]float64{}
	for _, m := range got {
		if prev, ok := last[m.Streamer]; (ok && m.Ms != prev+1) || (!ok && m.Ms != 0) {
			t.Fatalf("writer %s: ms=%v after %v", m.Streamer, m.Ms, prev)
		}
		last[m.Streamer] = m.Ms
	}
}
