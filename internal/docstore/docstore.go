// Package docstore implements the document store Tero keeps latency
// measurements in (App. B uses MongoDB), cut to what Tero sends it:
// measurements are only ever inserted, so a collection is its documents in
// insertion order — no update, delete or lookup by ID — with filtered
// scans, single-field hash indexes and a sequence cursor (FindAfter) over
// the tail.
package docstore

import (
	"fmt"
	"sort"
	"sync"

	"tero/internal/obs"
)

// Op counters: one per store operation, mirroring what a MongoDB profiler
// would report for the paper's deployment.
var (
	mInsert   = obs.C(obs.Lbl("docstore_ops_total", "op", "insert"))
	mFind     = obs.C(obs.Lbl("docstore_ops_total", "op", "find"))
	mFindEq   = obs.C(obs.Lbl("docstore_ops_total", "op", "findeq"))
	mDistinct = obs.C(obs.Lbl("docstore_ops_total", "op", "distinct"))
)

// Doc is one document: a field→value map. The "_id" field is assigned on
// insert.
type Doc map[string]any

// clone deep-copies one level of the document (values are copied by
// assignment; callers should not mutate nested structures).
func (d Doc) clone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

// Collection is an append-only sequence of documents. docs[n-1] is the n-th
// document inserted, so a position is both the insertion order and the
// FindAfter sequence, and an index's position lists are already sorted.
type Collection struct {
	mu      sync.RWMutex
	docs    []Doc
	indexes map[string]map[any][]int // field -> value -> positions in docs
}

// Store is a named set of collections.
type Store struct {
	mu    sync.Mutex
	colls map[string]*Collection
}

// New returns an empty store.
func New() *Store {
	return &Store{colls: make(map[string]*Collection)}
}

// C returns (creating if needed) the named collection.
func (s *Store) C(name string) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.colls[name]
	if !ok {
		c = &Collection{indexes: make(map[string]map[any][]int)}
		s.colls[name] = c
	}
	return c
}

// EnsureIndex creates a hash index on a field (idempotent).
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[field]; ok {
		return
	}
	idx := make(map[any][]int)
	for pos, d := range c.docs {
		if v, ok := d[field]; ok {
			idx[v] = append(idx[v], pos)
		}
	}
	c.indexes[field] = idx
}

// Insert stores a copy of the document and returns its assigned ID.
func (c *Collection) Insert(d Doc) string {
	mInsert.Inc()
	cp := d.clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	pos := len(c.docs)
	id := fmt.Sprintf("doc%08d", pos+1)
	cp["_id"] = id
	c.docs = append(c.docs, cp)
	for field, idx := range c.indexes {
		if v, ok := cp[field]; ok {
			idx[v] = append(idx[v], pos)
		}
	}
	return id
}

// Find returns copies of all documents matching the filter (nil filter
// matches all), in insertion order.
func (c *Collection) Find(filter func(Doc) bool) []Doc {
	mFind.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Doc
	for _, d := range c.docs {
		if filter == nil || filter(d) {
			out = append(out, d.clone())
		}
	}
	return out
}

// FindAfter returns copies of the documents inserted after sequence seq
// (0 means from the beginning), in insertion order, plus the current
// sequence to pass to the next call. It is the cursor primitive behind
// PublishAt's freshness pass: each publish consumes only the documents
// that arrived since the previous one — the slice tail past the cursor and
// nothing before it.
func (c *Collection) FindAfter(seq int) ([]Doc, int) {
	mFind.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if seq < 0 {
		seq = 0
	}
	if seq >= len(c.docs) {
		return nil, len(c.docs)
	}
	out := make([]Doc, 0, len(c.docs)-seq)
	for _, d := range c.docs[seq:] {
		out = append(out, d.clone())
	}
	return out, len(c.docs)
}

// FindEq returns copies of the documents whose field equals value, in
// insertion order, using an index when one exists.
func (c *Collection) FindEq(field string, value any) []Doc {
	mFindEq.Inc()
	c.mu.RLock()
	idx, ok := c.indexes[field]
	if !ok {
		c.mu.RUnlock()
		return c.Find(func(d Doc) bool { return d[field] == value })
	}
	defer c.mu.RUnlock()
	out := make([]Doc, 0, len(idx[value]))
	for _, pos := range idx[value] {
		out = append(out, c.docs[pos].clone())
	}
	return out
}

// Distinct returns the distinct string values of a field across all
// documents, sorted. With an index on the field it reads the index keys
// directly instead of scanning every document; non-string values are
// ignored either way.
func (c *Collection) Distinct(field string) []string {
	mDistinct.Inc()
	c.mu.RLock()
	seen := make(map[string]bool)
	if idx, ok := c.indexes[field]; ok {
		for v := range idx {
			if s, isStr := v.(string); isStr {
				seen[s] = true
			}
		}
	} else {
		for _, d := range c.docs {
			if s, isStr := d[field].(string); isStr {
				seen[s] = true
			}
		}
	}
	c.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
