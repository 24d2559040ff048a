// Package kvstore implements the key-value store Tero's micro-services
// coordinate through (App. A/B uses Redis): an in-memory store with strings,
// hashes and lists, plus a RESP-framed TCP server and client so separate
// processes can share it, exactly as the paper's coordinator and downloaders
// do. It is sized to the traffic Tero sends, not to Redis: the ten
// operations of KV (SET GET DEL HSET HGET HDEL HGETALL RPUSH LPOP LLEN) are
// the whole data surface — no TTLs, counters, key scans or right-end pops —
// so those ten are all that is logged, replicated, snapshotted and fuzzed.
//
// The store is optionally durable and replicated. Open attaches an
// append-only file of RESP-framed write commands plus periodic snapshots
// (aof.go, snapshot.go), and the same command stream feeds live replicas
// (replica.go, the SYNC/REPLICAOF handshake in server.go). Every mutator
// that changed state calls logCmd under the write lock, so the AOF, every
// replica feed and the store itself observe one serialized command order.
package kvstore

import "sync"

// list is a deque with a popped-prefix watermark. Slicing `l = l[1:]` on a
// plain []string pins every popped element in the backing array forever (the
// dl:queue work queue grows without bound under sustained push/pop); instead
// LPop blanks the slot — releasing the string — and advances head, and the
// prefix is compacted away once it dominates the backing array.
type list struct {
	head  int
	elems []string
}

func (l *list) len() int { return len(l.elems) - l.head }

// vals returns the live window; callers must not retain it across unlocks.
func (l *list) vals() []string { return l.elems[l.head:] }

// compact drops the popped prefix once it is both non-trivial and at least
// half the backing array, keeping amortized pop cost O(1).
func (l *list) compact() {
	if l.head >= 32 && l.head*2 >= len(l.elems) {
		n := copy(l.elems, l.elems[l.head:])
		for i := n; i < len(l.elems); i++ {
			l.elems[i] = ""
		}
		l.elems = l.elems[:n]
		l.head = 0
	}
}

// Store is an in-memory key-value store safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	strings map[string]string
	hashes  map[string]map[string]string
	lists   map[string]*list

	// Durability and replication, all manipulated under mu. logging is
	// true while any sink (AOF or replica feed) is attached; mutators
	// check it before building the command slice so the pure in-memory
	// path stays allocation-free.
	logging bool
	aof     *aofWriter
	feeds   map[*Feed]struct{}
	replOff int64
}

// New returns an empty store.
func New() *Store {
	return &Store{
		strings: make(map[string]string),
		hashes:  make(map[string]map[string]string),
		lists:   make(map[string]*list),
		feeds:   make(map[*Feed]struct{}),
	}
}

// logCmd records one applied write command: it advances the replication
// offset, appends to the AOF and fans out to live replica feeds. Caller
// holds Lock and has already applied the mutation. A feed that cannot keep
// up (full channel) is dropped rather than stalling writes; the replica
// sees its stream close and can re-SYNC.
func (s *Store) logCmd(args ...string) {
	s.replOff++
	if s.aof != nil {
		s.aof.append(args)
		if s.aof.compactEvery > 0 && s.aof.appends >= s.aof.compactEvery {
			s.compactLocked() //nolint:errcheck // best-effort; error is sticky in aof.err
		}
	}
	for f := range s.feeds {
		select {
		case f.ch <- args:
		default:
			delete(s.feeds, f)
			close(f.ch)
			mReplDropped.Inc()
			mReplReplicas.Set(float64(len(s.feeds)))
		}
	}
	if len(s.feeds) == 0 && s.aof == nil {
		s.logging = false
	}
}

// ReplOffset returns the number of write commands logged so far. It only
// advances while a sink (AOF or replica feed) is attached, and is the
// coordinate replicas report their progress in.
func (s *Store) ReplOffset() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replOff
}

// Set stores a string value.
func (s *Store) Set(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strings[key] = value
	if s.logging {
		s.logCmd("SET", key, value)
	}
}

// Get returns the string value of key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.strings[key]
	return v, ok
}

// Del removes a key of any type. It reports whether something was removed.
func (s *Store) Del(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, a := s.strings[key]
	_, b := s.hashes[key]
	_, c := s.lists[key]
	if !(a || b || c) {
		return false
	}
	delete(s.strings, key)
	delete(s.hashes, key)
	delete(s.lists, key)
	if s.logging {
		s.logCmd("DEL", key)
	}
	return true
}

// HSet sets a hash field. It reports whether the field was created (true)
// or an existing field was overwritten (false), matching Redis HSET's
// reply.
func (s *Store) HSet(key, field, value string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hashes[key]
	if !ok {
		h = make(map[string]string)
		s.hashes[key] = h
	}
	_, existed := h[field]
	h[field] = value
	if s.logging {
		s.logCmd("HSET", key, field, value)
	}
	return !existed
}

// HGet returns a hash field.
func (s *Store) HGet(key, field string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.hashes[key][field]
	return v, ok
}

// HDel removes a hash field, reporting whether it existed. The hash entry
// itself is deleted once its last field goes, so a fully-drained hash stops
// counting in Len and Del and leaves no empty entry in a snapshot.
func (s *Store) HDel(key, field string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hashes[key]
	if !ok {
		return false
	}
	if _, ok := h[field]; !ok {
		return false
	}
	delete(h, field)
	if len(h) == 0 {
		delete(s.hashes, key)
	}
	if s.logging {
		s.logCmd("HDEL", key, field)
	}
	return true
}

// HGetAll returns a copy of the whole hash.
func (s *Store) HGetAll(key string) map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.hashes[key]))
	for f, v := range s.hashes[key] {
		out[f] = v
	}
	return out
}

// RPush appends values to a list and returns its new length.
func (s *Store) RPush(key string, values ...string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lists[key]
	if !ok {
		l = &list{}
		s.lists[key] = l
	}
	l.elems = append(l.elems, values...)
	if s.logging {
		s.logCmd(append([]string{"RPUSH", key}, values...)...)
	}
	return l.len()
}

// LPop removes and returns the first element of a list.
func (s *Store) LPop(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lists[key]
	if !ok || l.len() == 0 {
		return "", false
	}
	v := l.elems[l.head]
	l.elems[l.head] = "" // release the string; see type list
	l.head++
	if l.len() == 0 {
		delete(s.lists, key)
	} else {
		l.compact()
	}
	if s.logging {
		s.logCmd("LPOP", key)
	}
	return v, true
}

// LLen returns the length of a list.
func (s *Store) LLen(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if l, ok := s.lists[key]; ok {
		return l.len()
	}
	return 0
}

// Len returns the number of live keys; a key holding values of more than
// one type counts once per type.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.strings) + len(s.hashes) + len(s.lists)
}
