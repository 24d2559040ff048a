// Package docstore implements the document store Tero keeps latency
// measurements and analysis results in (App. B uses MongoDB): collections
// of schemaless documents with auto-assigned IDs, filtered queries, and
// single-field hash indexes.
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
	mGet      = obs.C(obs.Lbl("docstore_ops_total", "op", "get"))
	mFind     = obs.C(obs.Lbl("docstore_ops_total", "op", "find"))
	mFindEq   = obs.C(obs.Lbl("docstore_ops_total", "op", "findeq"))
	mDistinct = obs.C(obs.Lbl("docstore_ops_total", "op", "distinct"))
	mUpdate   = obs.C(obs.Lbl("docstore_ops_total", "op", "update"))
	mDelete   = obs.C(obs.Lbl("docstore_ops_total", "op", "delete"))
)

// Doc is one document: a field→value map. The "_id" field is assigned on
// insert.
type Doc map[string]any

// ID returns the document's identifier.
func (d Doc) ID() string {
	id, _ := d["_id"].(string)
	return id
}

// clone deep-copies one level of the document (values are copied by
// assignment; callers should not mutate nested structures).
func (d Doc) clone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = v
	}
	return out
}

// Collection is a set of documents.
type Collection struct {
	mu      sync.RWMutex
	docs    map[string]Doc
	nextID  int
	indexes map[string]map[any][]string // field -> value -> ids
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
		c = &Collection{docs: make(map[string]Doc), indexes: make(map[string]map[any][]string)}
		s.colls[name] = c
	}
	return c
}

// Collections returns the names of all collections, sorted.
func (s *Store) Collections() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.colls))
	for n := range s.colls {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EnsureIndex creates a hash index on a field (idempotent).
func (c *Collection) EnsureIndex(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.indexes[field]; ok {
		return
	}
	idx := make(map[any][]string)
	for id, d := range c.docs {
		if v, ok := d[field]; ok {
			idx[v] = append(idx[v], id)
		}
	}
	c.indexes[field] = idx
}

// docID renders the ID of the n-th document inserted into a collection.
func docID(n int) string { return fmt.Sprintf("doc%08d", n) }

// Insert stores a document and returns its assigned ID.
func (c *Collection) Insert(d Doc) string {
	mInsert.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := docID(c.nextID)
	cp := d.clone()
	cp["_id"] = id
	c.docs[id] = cp
	for field, idx := range c.indexes {
		if v, ok := cp[field]; ok {
			idx[v] = append(idx[v], id)
		}
	}
	return id
}

// Get returns the document with the given ID.
func (c *Collection) Get(id string) (Doc, bool) {
	mGet.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	if !ok {
		return nil, false
	}
	return d.clone(), true
}

// Find returns copies of all documents matching the filter (nil filter
// matches all), in insertion-ID order.
func (c *Collection) Find(filter func(Doc) bool) []Doc {
	mFind.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Doc
	for _, id := range ids {
		d := c.docs[id]
		if filter == nil || filter(d) {
			out = append(out, d.clone())
		}
	}
	return out
}

// FindAfter returns copies of the documents inserted after sequence seq
// (0 means from the beginning), in insertion-ID order, plus the current
// sequence to pass to the next call. It is the cursor primitive behind
// PublishAt's freshness pass: each publish consumes only the documents
// that arrived since the previous one — the walk visits IDs seq+1 through
// the current sequence and nothing before them. Documents deleted since
// insertion are simply absent.
func (c *Collection) FindAfter(seq int) ([]Doc, int) {
	mFind.Inc()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if seq >= c.nextID {
		return nil, c.nextID
	}
	out := make([]Doc, 0, c.nextID-seq)
	for n := seq + 1; n <= c.nextID; n++ {
		if d, ok := c.docs[docID(n)]; ok {
			out = append(out, d.clone())
		}
	}
	return out, c.nextID
}

// FindEq returns documents whose field equals value, using an index when
// one exists.
func (c *Collection) FindEq(field string, value any) []Doc {
	mFindEq.Inc()
	c.mu.RLock()
	if idx, ok := c.indexes[field]; ok {
		ids := append([]string(nil), idx[value]...)
		sort.Strings(ids)
		out := make([]Doc, 0, len(ids))
		for _, id := range ids {
			if d, ok := c.docs[id]; ok {
				out = append(out, d.clone())
			}
		}
		c.mu.RUnlock()
		return out
	}
	c.mu.RUnlock()
	return c.Find(func(d Doc) bool { return d[field] == value })
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
		for v, ids := range idx {
			if s, isStr := v.(string); isStr && len(ids) > 0 {
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

// Update merges fields into the document with the given ID.
func (c *Collection) Update(id string, fields Doc) bool {
	mUpdate.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[id]
	if !ok {
		return false
	}
	for field, idx := range c.indexes {
		if newV, changes := fields[field]; changes {
			if oldV, had := d[field]; had {
				idx[oldV] = removeID(idx[oldV], id)
			}
			idx[newV] = append(idx[newV], id)
		}
	}
	for k, v := range fields {
		if k == "_id" {
			continue
		}
		d[k] = v
	}
	return true
}

// Delete removes a document.
func (c *Collection) Delete(id string) bool {
	mDelete.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[id]
	if !ok {
		return false
	}
	for field, idx := range c.indexes {
		if v, had := d[field]; had {
			idx[v] = removeID(idx[v], id)
		}
	}
	delete(c.docs, id)
	return true
}

// Count returns the number of documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

func removeID(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
