// Package objstore implements the S3-like object store Tero uses for
// thumbnails and intermediate image-processing products (App. B uses a
// Ceph-based store): named buckets of binary objects with metadata,
// safe for concurrent use.
package objstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tero/internal/obs"
)

// Spill observability: write-through file traffic when a disk directory is
// configured (see NewSpill).
var (
	mSpillWrites = obs.C("objstore_spill_writes_total")
	mSpillBytes  = obs.C("objstore_spill_bytes_total")
	mSpillReads  = obs.C("objstore_spill_reads_total")
)

// ErrNotFound is returned when a bucket or object does not exist.
var ErrNotFound = errors.New("objstore: not found")

// Object is a stored value with its metadata. Data and Meta are the store's
// own (see API): read them, never write to them.
type Object struct {
	Key     string
	Data    []byte
	ETag    string
	ModTime time.Time
	Meta    map[string]string

	// spilled marks payloads that live on disk rather than in Data.
	spilled bool
}

// API is the object-store surface the rest of the system programs against.
// The in-memory/spilling *Store is its one implementation in the program;
// being an interface is what lets the benchmark and tests wrap it in
// decorators. The RESP wire client (kvstore.RemoteObjects) only puts and
// does not implement it: no process reads another's objects.
//
// Payloads change hands, they are not copied: Put takes ownership of data
// and meta, which the caller must not write to afterwards, and Get returns
// the stored slice and map, which every reader shares and none may write to.
// A thumbnail is thus allocated once, by whoever read it off the wire.
type API interface {
	Put(bucket, key string, data []byte, meta map[string]string) string
	Get(bucket, key string) (*Object, error)
	Head(bucket, key string) (*Object, error)
	Delete(bucket, key string) error
	List(bucket, prefix string) []string
	Size(bucket string) int
}

// Store is an in-memory object store, optionally spilling payload bytes to
// disk (metadata and keys always stay in memory).
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string]*Object

	// dir, when non-empty, is the spill directory: payloads are written
	// through to dir/<bucket>/<escaped key> and only read back on Get, so
	// a coordinator holding every in-flight thumbnail does not keep the
	// bytes resident.
	dir string
}

var _ API = (*Store)(nil)

// New returns an empty store.
func New() *Store {
	return &Store{buckets: make(map[string]map[string]*Object)}
}

// NewSpill returns a store that writes payloads through to files under dir
// (one file per object, keyed by bucket and escaped object key), keeping
// only metadata in memory. Objects survive in memory-index terms only for
// the store's lifetime — the directory is a RAM bound, not a durability
// mechanism.
func NewSpill(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := New()
	s.dir = dir
	return s, nil
}

// spillPath maps bucket/key to the payload file. Keys are query-escaped into
// a single flat file name, so key separators ("id/seq.pgm") and any hostile
// path bytes cannot escape the bucket directory.
func (s *Store) spillPath(bucket, key string) string {
	return filepath.Join(s.dir, url.QueryEscape(bucket), url.QueryEscape(key))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Put stores an object, replacing any existing one, and returns its ETag.
// The bucket is created if needed. The store keeps data and meta themselves.
// The ETag is a change detector (CRC-32C), not an integrity check: whoever
// needs one verifies a digest before Put, as the downloader does.
func (s *Store) Put(bucket, key string, data []byte, meta map[string]string) string {
	etag := fmt.Sprintf("%08x", crc32.Checksum(data, castagnoli))
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string]*Object)
		s.buckets[bucket] = b
	}
	o := &Object{Key: key, Data: data, ETag: etag, ModTime: time.Now(), Meta: meta}
	if s.dir != "" {
		p := s.spillPath(bucket, key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
			if err := os.WriteFile(p, data, 0o644); err == nil {
				o.Data, o.spilled = nil, true
				mSpillWrites.Inc()
				mSpillBytes.Add(int64(len(data)))
			}
		}
		// On any write failure the payload simply stays in memory: spill is
		// a RAM optimization, never a correctness dependency.
	}
	b[key] = o
	return etag
}

// Get returns the object. Its Data is the stored slice itself, shared with
// every other reader (a spilled payload is read back into a fresh one).
func (s *Store) Get(bucket, key string) (*Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.buckets[bucket][key]
	if !ok {
		return nil, ErrNotFound
	}
	cp := *o
	if o.spilled {
		data, err := os.ReadFile(s.spillPath(bucket, key))
		if err != nil {
			return nil, err
		}
		mSpillReads.Inc()
		cp.Data, cp.spilled = data, false
	}
	return &cp, nil
}

// Head returns the object's metadata without its data.
func (s *Store) Head(bucket, key string) (*Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.buckets[bucket][key]
	if !ok {
		return nil, ErrNotFound
	}
	cp := *o
	cp.Data = nil
	return &cp, nil
}

// Delete removes an object.
func (s *Store) Delete(bucket, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return ErrNotFound
	}
	o, ok := b[key]
	if !ok {
		return ErrNotFound
	}
	if o.spilled {
		os.Remove(s.spillPath(bucket, key)) //nolint:errcheck // best-effort cleanup
	}
	delete(b, key)
	return nil
}

// List returns the keys in a bucket with the given prefix, sorted.
func (s *Store) List(bucket, prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.buckets[bucket] {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the number of objects in a bucket.
func (s *Store) Size(bucket string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.buckets[bucket])
}
