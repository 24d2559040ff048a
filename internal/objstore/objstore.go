// Package objstore implements the S3-like object store Tero uses for
// thumbnails and intermediate image-processing products (App. B uses a
// Ceph-based store): named buckets of binary objects with metadata,
// safe for concurrent use. A store is local to its process: no object
// crosses a process boundary, and a fleet worker's thumbnails stay in its
// own store.
package objstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNotFound is returned when a bucket or object does not exist.
var ErrNotFound = errors.New("objstore: not found")

// Object is a stored value with its metadata. Data and Meta are the store's
// own (see API): read them, never write to them.
type Object struct {
	Key  string
	Data []byte
	ETag string
	Meta map[string]string
}

// API is the object-store surface the rest of the system programs against.
// The in-memory *Store is its one implementation in the program; being an
// interface is what lets the benchmark and tests wrap it in decorators.
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

// Store is an in-memory object store.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string]*Object
	puts    uint64 // writes so far: the last Put's ETag
}

var _ API = (*Store)(nil)

// New returns an empty store.
func New() *Store {
	return &Store{buckets: make(map[string]map[string]*Object)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C (Castagnoli) of data: the CDN's
// X-Thumbnail-Digest, written by ChecksumHex, which the downloader checks
// before it stores a body. It detects accidental damage, not tampering.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ChecksumHex is Checksum(data) as 8 lower-case hex digits, the text form of
// the X-Thumbnail-Digest header.
func ChecksumHex(data []byte) string { return fmt.Sprintf("%08x", Checksum(data)) }

// Put stores an object, replacing any existing one, and returns its ETag.
// The bucket is created if needed. The store keeps data and meta themselves.
// The ETag is the store's count of writes, this one included: it changes on
// every write, an overwrite with the same bytes too, and reads nothing of
// the body (whose digest the downloader checked before Put).
func (s *Store) Put(bucket, key string, data []byte, meta map[string]string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string]*Object)
		s.buckets[bucket] = b
	}
	s.puts++
	etag := strconv.FormatUint(s.puts, 10)
	b[key] = &Object{Key: key, Data: data, ETag: etag, Meta: meta}
	return etag
}

// Get returns the object. Its Data is the stored slice itself, shared with
// every other reader.
func (s *Store) Get(bucket, key string) (*Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.buckets[bucket][key]
	if !ok {
		return nil, ErrNotFound
	}
	cp := *o
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
	if _, ok := b[key]; !ok {
		return ErrNotFound
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
