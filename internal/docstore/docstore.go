// Package docstore is the table Tero keeps latency measurements in. App. B
// keeps them in MongoDB; Tero sends it one collection of one fixed schema
// and only ever inserts, so here it is one typed, append-only table of
// Measurement rows, read back per streamer (Of), as the set of streamers
// (Streamers) or as the tail past a sequence cursor (After).
package docstore

import (
	"sort"
	"sync"
	"time"

	"tero/internal/obs"
)

// Op counters, one per read or write method: find counts After (and Find),
// findeq Of, distinct Streamers. The names mirror what a MongoDB profiler
// would report for the paper's deployment.
var (
	mInsert   = obs.C(obs.Lbl("docstore_ops_total", "op", "insert"))
	mFind     = obs.C(obs.Lbl("docstore_ops_total", "op", "find"))
	mFindEq   = obs.C(obs.Lbl("docstore_ops_total", "op", "findeq"))
	mDistinct = obs.C(obs.Lbl("docstore_ops_total", "op", "distinct"))
)

// Measurement is one stored latency reading. It holds no platform ID and
// no login: Streamer is the pseudonym.
type Measurement struct {
	Streamer string // pseudonymised streamer ID
	Game     string
	AtUnix   int64 // the thumbnail's download stamp, in unix seconds
	Ms       float64
	Alt      float64 // the disagreeing engine's reading; valid when HasAlt
	HasAlt   bool
	Trace    string // traceparent of the reading's journey; empty when untraced
}

// Store is the measurement table. rows[n-1] is the n-th row inserted, so a
// position is both the insertion order and After's sequence, and each
// streamer's position list is already sorted.
type Store struct {
	mu   sync.RWMutex
	rows []Measurement
	of   map[string][]int // streamer -> positions in rows
}

// New returns an empty table.
func New() *Store {
	return &Store{of: make(map[string][]int)}
}

// Insert appends one row.
func (s *Store) Insert(m Measurement) {
	mInsert.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.of[m.Streamer] = append(s.of[m.Streamer], len(s.rows))
	s.rows = append(s.rows, m)
}

// Of returns a copy of the streamer's rows, in insertion order.
func (s *Store) Of(streamer string) []Measurement {
	mFindEq.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	pos := s.of[streamer]
	out := make([]Measurement, len(pos))
	for i, n := range pos {
		out[i] = s.rows[n]
	}
	return out
}

// Streamers returns every streamer with at least one row, sorted.
func (s *Store) Streamers() []string {
	mDistinct.Inc()
	s.mu.RLock()
	out := make([]string, 0, len(s.of))
	for streamer := range s.of {
		out = append(out, streamer)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// After returns a copy of the rows inserted after sequence seq (0 means
// from the beginning), in insertion order, plus the sequence to pass to the
// next call. It is the cursor behind PublishAt's freshness pass: a publish
// copies the tail past its cursor and nothing before it.
func (s *Store) After(seq int) ([]Measurement, int) {
	mFind.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	seq = min(max(seq, 0), len(s.rows))
	return append([]Measurement(nil), s.rows[seq:]...), len(s.rows)
}

// Doc is a row rendered as a field map, for Find.
type Doc map[string]any

// C returns the table, whatever the name. C and Find stay only because
// bench/ hashes docs.C("measurements").Find(nil) and that module changes in
// benchmark PRs alone.
func (s *Store) C(string) *Store { return s }

// Find renders the rows that match filter (nil matches all), in insertion
// order, as the five fields bench/ hashes: streamer, game, at, ms, and alt
// when HasAlt. "at" is AtUnix in the UTC RFC 3339 form the downloader
// stamps thumbnails with, so it is the stamp the row was built from.
func (s *Store) Find(filter func(Doc) bool) []Doc {
	rows, _ := s.After(0)
	var out []Doc
	for _, m := range rows {
		at := time.Unix(m.AtUnix, 0).UTC().Format(time.RFC3339)
		d := Doc{"streamer": m.Streamer, "game": m.Game, "at": at, "ms": m.Ms}
		if m.HasAlt {
			d["alt"] = m.Alt
		}
		if filter == nil || filter(d) {
			out = append(out, d)
		}
	}
	return out
}
