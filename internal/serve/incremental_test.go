package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tero/internal/core"
	"tero/internal/geo"
)

// sameSnapshot reports the first difference between two snapshots in what a
// client can observe: the entries' keys and order, the body and ETag of
// each, and the two catalog bodies with their ETags.
func sameSnapshot(got, want *Snapshot) error {
	if len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i, g := range got.Entries {
		w := want.Entries[i]
		switch {
		case g.Key != w.Key:
			return fmt.Errorf("entry %d is %s, want %s", i, g.Key, w.Key)
		case !bytes.Equal(g.BodyJSON(), w.BodyJSON()):
			return fmt.Errorf("%s: JSON bodies differ (ETag %s, want %s)", g.Key, g.ETag(), w.ETag())
		case g.ETag() != w.ETag():
			return fmt.Errorf("%s: ETag %s, want %s", g.Key, g.ETag(), w.ETag())
		}
	}
	gc, wc := got.Catalog, want.Catalog
	switch {
	case !bytes.Equal(gc.locationsBody, wc.locationsBody) || gc.locationsETag != wc.locationsETag:
		return fmt.Errorf("locations listing\n got %s\nwant %s", gc.locationsBody, wc.locationsBody)
	case !bytes.Equal(gc.gamesBody, wc.gamesBody) || gc.gamesETag != wc.gamesETag:
		return fmt.Errorf("games listing\n got %s\nwant %s", gc.gamesBody, wc.gamesBody)
	}
	return nil
}

// TestIncrementalBuildMatchesFresh drives one builder through a seeded
// sequence of Add, Replace and Build and holds every snapshot to two things:
// it equals, byte for byte, what a fresh builder fed the same final set
// builds (at the other Concurrency, and fed in another order), and every
// entry of a group the step did not touch is the previous snapshot's own
// pointer. Readers use the index throughout, for -race.
func TestIncrementalBuildMatchesFresh(t *testing.T) {
	for _, conc := range []int{1, 8} {
		t.Run(fmt.Sprintf("concurrency=%d", conc), func(t *testing.T) { incrementalSequence(t, conc) })
	}
}

func incrementalSequence(t *testing.T, conc int) {
	rng := rand.New(rand.NewSource(17))
	locs := []geo.Location{locMilan, locTokyo, locQuebec,
		{City: "Lyon", Country: "France"}, {City: "Porto", Country: "Portugal"}}
	first := geo.Location{City: "Aachen", Country: "Germany"} // sorts before every key above
	games := []string{"Fortnite", "League of Legends", "Dota 2"}
	nextID := 0
	mk := func(loc geo.Location, game string, n int) *core.Analysis {
		nextID++
		return testAnalysis(fmt.Sprintf("s%d", nextID), game, loc, 20+200*rng.Float64(), n)
	}
	random := func() *core.Analysis {
		return mk(locs[rng.Intn(len(locs))], games[rng.Intn(len(games))], 6+rng.Intn(30))
	}

	b := NewBuilder(core.DefaultParams())
	b.Concurrency = conc
	var held []*core.Analysis    // what the builder should hold
	touched := map[string]bool{} // keys of the groups written since the last Build
	touch := func(a *core.Analysis) {
		if gk, ok := groupKeyOf(a); ok {
			touched[EntryKey(gk.Loc, gk.Game)] = true
		}
	}
	add := func(a *core.Analysis) {
		b.Add(a)
		held = append(held, a)
		touch(a)
	}
	replace := func(i int, next *core.Analysis) {
		b.Replace(held[i], next)
		touch(held[i])
		touch(next)
		if _, ok := groupKeyOf(next); ok {
			held[i] = next
		} else {
			held = append(held[:i], held[i+1:]...)
		}
	}
	served := func(loc geo.Location, game string) bool {
		_, ok := b.Build().Lookup(EntryKey(loc, game))
		return ok
	}

	ix := NewIndex(0)
	var prev *Snapshot
	check := func(step string) {
		t.Helper()
		snap := b.Build()
		fresh := NewBuilder(b.Params)
		fresh.Concurrency = 9 - conc
		for _, i := range rng.Perm(len(held)) {
			fresh.Add(held[i])
		}
		if err := sameSnapshot(snap, fresh.Build()); err != nil {
			t.Fatalf("%s: incremental build differs from a fresh one: %v", step, err)
		}
		if prev != nil {
			for _, e := range snap.Entries {
				old, ok := prev.Lookup(e.Key)
				if ok && !touched[e.Key] && old != e {
					t.Fatalf("%s: untouched entry %s was rendered again", step, e.Key)
				}
				if ok && touched[e.Key] && old == e {
					t.Fatalf("%s: written entry %s was carried over", step, e.Key)
				}
			}
		}
		if again := b.Build(); again != snap {
			t.Fatalf("%s: a Build with nothing written returned a new snapshot", step)
		}
		version := ix.Version()
		ix.Swap(snap)
		ix.Swap(snap)
		if moved := ix.Version() - version; moved != 1 {
			t.Fatalf("%s: two Swaps of one new snapshot moved the version by %d, want 1", step, moved)
		}
		prev = snap
		clear(touched)
	}

	for i := 0; i < 12; i++ {
		add(random())
	}
	check("first build")

	// Readers on the index from here on: lookups, bodies and listings of
	// whatever snapshot is current, while the builder renders the next.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				cat := ix.Catalog()
				l := cat.Locations[n%len(cat.Locations)]
				key := l.Location.Key + "::" + games[n%len(games)]
				if e, ok := ix.Get(key); ok && (len(e.BodyJSON()) == 0 || e.ETag() == "" || e.N() == 0) {
					t.Errorf("reader: entry %s is torn", key)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	for step := 0; step < 30; step++ {
		name := fmt.Sprintf("step %d", step)
		switch step {
		case 5: // a new group whose key sorts before every other
			add(mk(first, "Dota 2", 25))
		case 9: // a streamer moves between two locations
			i := rng.Intn(len(held))
			from, _ := groupKeyOf(held[i])
			to := locs[rng.Intn(len(locs))]
			for to == from.Loc {
				to = locs[rng.Intn(len(locs))]
			}
			replace(i, mk(to, from.Game, 20))
		case 13: // the only streamer of a group goes unlocated: the group empties
			oslo := geo.Location{City: "Oslo", Country: "Norway"}
			add(mk(oslo, "Dota 2", 30))
			check(name + " (a group of one)")
			replace(len(held)-1, mk(geo.Location{}, "Dota 2", 30))
			if served(oslo, "Dota 2") || b.groups[core.GroupKey{Loc: oslo, Game: "Dota 2"}] != nil {
				t.Fatalf("%s: the emptied group is still there", name)
			}
		default:
			for ops := 1 + rng.Intn(4); ops > 0; ops-- {
				switch i := rng.Intn(len(held)); rng.Intn(3) {
				case 0:
					add(random())
				case 1: // same group, new data
					gk, _ := groupKeyOf(held[i])
					replace(i, mk(gk.Loc, gk.Game, 6+rng.Intn(30)))
				default: // wherever it lands
					replace(i, random())
				}
			}
		}
		check(name)
		if step == 5 && prev.Entries[0].Location != first {
			t.Fatalf("%s: the group that sorts first is not the first entry: %s", name, prev.Entries[0].Key)
		}
	}
}
