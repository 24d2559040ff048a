package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"tero/internal/obs"
)

// mPublishSkipped counts the Swaps that had nothing to install.
var mPublishSkipped = obs.C("serve_publish_skipped_total")

// Index gauges, updated on every Swap.
var (
	gIndexEntries   = obs.G("serve_index_entries")
	gIndexPoints    = obs.G("serve_index_points")
	gIndexLocations = obs.G("serve_index_locations")
	gIndexGames     = obs.G("serve_index_games")
	gIndexVersion   = obs.G("serve_index_version")
)

// LocationSummary is one row of the /v1/locations listing.
type LocationSummary struct {
	Location LocationJSON `json:"location"`
	Games    []string     `json:"games"`
	Points   int          `json:"points"`
}

// GameSummary is one row of the /v1/games listing.
type GameSummary struct {
	Game      string `json:"game"`
	Locations int    `json:"locations"`
	Points    int    `json:"points"`
}

// Catalog is the listing state of one snapshot: the sorted location and game
// summaries with their JSON bodies and ETags precomputed at build time (the
// listings are global, so there is exactly one body per snapshot — no
// per-request work at all).
type Catalog struct {
	Locations []LocationSummary
	Games     []GameSummary
	// Entries and Points are the snapshot totals.
	Entries int
	Points  int

	locationsBody, gamesBody []byte
	locationsETag, gamesETag string
}

// locationsResponse and gamesResponse are the listing bodies.
type locationsResponse struct {
	Count     int               `json:"count"`
	Locations []LocationSummary `json:"locations"`
}

type gamesResponse struct {
	Count int           `json:"count"`
	Games []GameSummary `json:"games"`
}

// newCatalog aggregates the sorted entry list into listing summaries.
// entries must already be sorted by Key (Builder.Build guarantees it).
func newCatalog(entries []*Entry) *Catalog {
	c := &Catalog{Entries: len(entries)}
	locIdx := make(map[string]int)
	gameIdx := make(map[string]*GameSummary)
	var gameNames []string
	for _, e := range entries {
		c.Points += e.N()
		lk := e.Location.Key()
		i, ok := locIdx[lk]
		if !ok {
			i = len(c.Locations)
			locIdx[lk] = i
			c.Locations = append(c.Locations, LocationSummary{
				Location: locationJSON(e.Location),
			})
		}
		c.Locations[i].Games = append(c.Locations[i].Games, e.Game)
		c.Locations[i].Points += e.N()

		g, ok := gameIdx[e.Game]
		if !ok {
			g = &GameSummary{Game: e.Game}
			gameIdx[e.Game] = g
			gameNames = append(gameNames, e.Game)
		}
		g.Locations++
		g.Points += e.N()
	}
	// Entries are sorted by key = location key + game, so Locations is
	// already in location-key order and each Games slice in game order.
	sort.Strings(gameNames)
	for _, name := range gameNames {
		c.Games = append(c.Games, *gameIdx[name])
	}

	c.locationsBody = mustMarshal(locationsResponse{Count: len(c.Locations), Locations: c.Locations})
	c.gamesBody = mustMarshal(gamesResponse{Count: len(c.Games), Games: c.Games})
	c.locationsETag = bodyETag(c.locationsBody)
	c.gamesETag = bodyETag(c.gamesBody)
	return c
}

// mustMarshal marshals a value that cannot fail (all floats sanitized, no
// unsupported types); a failure is a programming error.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serve: marshal: " + err.Error())
	}
	return b
}

// bodyETag hashes a marshaled body into an ETag.
func bodyETag(body []byte) string {
	h := fnv.New64a()
	h.Write(body) //nolint:errcheck
	return fmt.Sprintf("\"t1-%016x\"", h.Sum64())
}

// Snapshot is an immutable build product: the sorted entries, the map that
// finds one by key, and the catalog. Index.Swap installs it with one pointer
// store; entries are shared, never copied, so a snapshot can be swapped into
// several indexes. Builder.Build is the only constructor.
type Snapshot struct {
	// Entries is sorted by Entry.Key.
	Entries []*Entry
	Catalog *Catalog

	byKey map[string]*Entry
}

// newSnapshot derives the lookup map and the catalog from the sorted
// entries. Nothing writes to either afterwards, which is what lets readers
// share the snapshot without a lock.
func newSnapshot(entries []*Entry) *Snapshot {
	byKey := make(map[string]*Entry, len(entries))
	for _, e := range entries {
		byKey[e.Key] = e
	}
	return &Snapshot{Entries: entries, Catalog: newCatalog(entries), byKey: byKey}
}

// Lookup finds an entry by key.
func (s *Snapshot) Lookup(key string) (*Entry, bool) {
	e, ok := s.byKey[key]
	return e, ok
}

// Index is the serving store: the current Snapshot behind one atomic
// pointer. A reader loads the pointer once and answers wholly from that
// snapshot, so everything in one response — both sides of a compare, a
// listing and the entries it names — comes from one publish, and no reader
// ever waits for a writer.
type Index struct {
	snap    atomic.Pointer[Snapshot]
	version atomic.Uint64
	swapMu  sync.Mutex // serialises Swap
}

// NewIndex creates an empty index. The argument was a shard count and is
// ignored; it stays only because bench/ calls NewIndex(0) and that module
// changes in benchmark PRs alone.
func NewIndex(int) *Index { return &Index{} }

// Get returns the entry for key in the current snapshot.
func (ix *Index) Get(key string) (*Entry, bool) {
	s := ix.snap.Load()
	if s == nil {
		return nil, false
	}
	return s.Lookup(key)
}

// Catalog returns the current catalog, or nil before the first Swap.
func (ix *Index) Catalog() *Catalog {
	if s := ix.snap.Load(); s != nil {
		return s.Catalog
	}
	return nil
}

// Ready reports whether a snapshot has been swapped in.
func (ix *Index) Ready() bool { return ix.snap.Load() != nil }

// Version returns the number of snapshots installed.
func (ix *Index) Version() uint64 { return ix.version.Load() }

// Len returns the current entry count.
func (ix *Index) Len() int {
	if s := ix.snap.Load(); s != nil {
		return len(s.Entries)
	}
	return 0
}

// Swap installs a snapshot as the new index content: one pointer store,
// whatever the snapshot's size. Concurrent swaps are serialized so Version
// and the gauges describe the snapshot that is installed.
//
// Handed the snapshot it already holds — what Builder.Build returns when
// nothing changed — Swap installs nothing, leaves Version alone and counts
// serve_publish_skipped_total. Returns the snapshot's entry count.
func (ix *Index) Swap(s *Snapshot) int {
	ix.swapMu.Lock()
	defer ix.swapMu.Unlock()

	if s == ix.snap.Load() {
		mPublishSkipped.Inc()
		return len(s.Entries)
	}
	ix.snap.Store(s)
	v := ix.version.Add(1)

	cat := s.Catalog
	gIndexEntries.Set(float64(cat.Entries))
	gIndexPoints.Set(float64(cat.Points))
	gIndexLocations.Set(float64(len(cat.Locations)))
	gIndexGames.Set(float64(len(cat.Games)))
	gIndexVersion.Set(float64(v))
	slog.Info("snapshot swapped", "version", v, "entries", cat.Entries,
		"locations", len(cat.Locations), "games", len(cat.Games), "points", cat.Points)
	return cat.Entries
}
