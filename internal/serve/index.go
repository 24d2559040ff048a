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

// DefaultShards is the index shard count. Shards exist so concurrent reads
// scale across cores: every lookup locks exactly one shard (read lock), and
// a Swap write-locks one shard at a time, so readers of the other shards
// are never blocked.
const DefaultShards = 16

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

// Catalog is the cross-shard listing state of one snapshot: the sorted
// location and game summaries with their JSON bodies and ETags precomputed
// at build time (the listings are global, so there is exactly one body per
// snapshot — no per-request work at all).
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

// Snapshot is an immutable build product: the sorted entries plus the
// catalog. Index.Swap installs it atomically; entries are shared, never
// copied, so a snapshot can be swapped into several indexes.
type Snapshot struct {
	// Entries is sorted by Entry.Key.
	Entries []*Entry
	Catalog *Catalog
}

// Lookup finds an entry by key in the sorted snapshot (used by tests and
// offline consumers; the Index is the serving path).
func (s *Snapshot) Lookup(key string) (*Entry, bool) {
	i := sort.Search(len(s.Entries), func(i int) bool { return s.Entries[i].Key >= key })
	if i < len(s.Entries) && s.Entries[i].Key == key {
		return s.Entries[i], true
	}
	return nil, false
}

// indexShard is one independently guarded map of the index.
type indexShard struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// Index is the serving store: a set of independently locked shards mapping
// entry keys to immutable entries, plus an atomically swapped catalog.
// Reads (Get) take one shard read-lock; Swap replaces content shard by
// shard under the shard write locks, so the pipeline can republish
// mid-serve without ever locking readers out globally. A reader during a
// swap sees either the old or the new entry for its key — both are
// internally consistent, so no response is ever torn.
type Index struct {
	shards  []indexShard
	catalog atomic.Pointer[Catalog]
	version atomic.Uint64
	swapMu  sync.Mutex
	held    *Snapshot // the last snapshot installed; guarded by swapMu
}

// NewIndex creates an index with the given shard count (<= 0 means
// DefaultShards).
func NewIndex(shards int) *Index {
	if shards <= 0 {
		shards = DefaultShards
	}
	ix := &Index{shards: make([]indexShard, shards)}
	for i := range ix.shards {
		ix.shards[i].entries = make(map[string]*Entry)
	}
	return ix
}

// shardFor hashes a key to its shard.
func (ix *Index) shardFor(key string) *indexShard {
	h := fnv.New32a()
	h.Write([]byte(key)) //nolint:errcheck
	return &ix.shards[h.Sum32()%uint32(len(ix.shards))]
}

// Get returns the entry for key, read-locking only that key's shard.
func (ix *Index) Get(key string) (*Entry, bool) {
	sh := ix.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	return e, ok
}

// Catalog returns the current catalog, or nil before the first Swap.
func (ix *Index) Catalog() *Catalog { return ix.catalog.Load() }

// Ready reports whether a snapshot has been swapped in.
func (ix *Index) Ready() bool { return ix.catalog.Load() != nil }

// Version returns the number of snapshots installed.
func (ix *Index) Version() uint64 { return ix.version.Load() }

// Len returns the current entry count across all shards.
func (ix *Index) Len() int {
	n := 0
	for i := range ix.shards {
		ix.shards[i].mu.RLock()
		n += len(ix.shards[i].entries)
		ix.shards[i].mu.RUnlock()
	}
	return n
}

// Swap installs a snapshot as the new index content: the catalog pointer
// flips first (listings and readiness see the new world atomically), then
// each shard's map is replaced under that shard's write lock alone.
// Concurrent swaps are serialized; readers are only ever blocked for the
// duration of one map-pointer assignment on one shard.
//
// Handed the snapshot it already holds — what Builder.Build returns when
// nothing changed — Swap installs nothing, leaves Version alone and counts
// serve_publish_skipped_total. Returns the snapshot's entry count.
func (ix *Index) Swap(s *Snapshot) int {
	ix.swapMu.Lock()
	defer ix.swapMu.Unlock()

	if s == ix.held {
		mPublishSkipped.Inc()
		return len(s.Entries)
	}
	ix.held = s

	byShard := make([]map[string]*Entry, len(ix.shards))
	for i := range byShard {
		byShard[i] = make(map[string]*Entry)
	}
	for _, e := range s.Entries {
		h := fnv.New32a()
		h.Write([]byte(e.Key)) //nolint:errcheck
		byShard[h.Sum32()%uint32(len(ix.shards))][e.Key] = e
	}

	cat := s.Catalog
	if cat == nil {
		cat = newCatalog(s.Entries)
	}
	ix.catalog.Store(cat)
	for i := range ix.shards {
		ix.shards[i].mu.Lock()
		ix.shards[i].entries = byShard[i]
		ix.shards[i].mu.Unlock()
	}
	v := ix.version.Add(1)

	gIndexEntries.Set(float64(cat.Entries))
	gIndexPoints.Set(float64(cat.Points))
	gIndexLocations.Set(float64(len(cat.Locations)))
	gIndexGames.Set(float64(len(cat.Games)))
	gIndexVersion.Set(float64(v))
	slog.Info("snapshot swapped", "version", v, "entries", cat.Entries,
		"locations", len(cat.Locations), "games", len(cat.Games), "points", cat.Points)
	return cat.Entries
}
