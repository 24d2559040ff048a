package kvstore

import "sync"

// KV is the store surface shared by the in-process Store and the RESP
// client: the operations Tero's micro-services coordinate through (App. A).
// The download module and pipeline depend on this interface, so the same
// code runs with an embedded store or against a shared TCP server.
type KV interface {
	Set(key, value string)
	Get(key string) (string, bool)
	Del(key string) bool
	// HSet reports whether the field was created (vs overwritten).
	HSet(key, field, value string) bool
	HGet(key, field string) (string, bool)
	// HDel reports whether the field existed.
	HDel(key, field string) bool
	HGetAll(key string) map[string]string
	RPush(key string, values ...string) int
	LPop(key string) (string, bool)
	LLen(key string) int
}

// Store implements KV directly.
var _ KV = (*Store)(nil)

// RemoteStore adapts a RESP Client to the KV interface, so processes can
// share one store over TCP exactly as the paper's containers share Redis.
// Transport errors surface through Err (the KV interface itself is
// error-free; a lost connection makes reads return zero values). Like the
// Client, it is safe for concurrent use.
type RemoteStore struct {
	c *Client

	mu  sync.Mutex
	err error // the first transport error
}

// DialStore connects to a kvstore server and returns a KV over it.
func DialStore(addr string) (*RemoteStore, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteStore{c: c}, nil
}

// Close closes the underlying connection.
func (r *RemoteStore) Close() error { return r.c.Close() }

// Client exposes the underlying RESP client (e.g. to set its redial
// budget before a run that expects the store to crash and come back).
func (r *RemoteStore) Client() *Client { return r.c }

// Err returns the first transport error any command met, or nil.
func (r *RemoteStore) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *RemoteStore) do(args ...string) (Reply, bool) {
	rep, err := r.c.Do(args...)
	if err != nil {
		r.mu.Lock()
		if r.err == nil {
			r.err = err
		}
		r.mu.Unlock()
		return Reply{}, false
	}
	return rep, true
}

// Set implements KV.
func (r *RemoteStore) Set(key, value string) { r.do("SET", key, value) }

// Get implements KV.
func (r *RemoteStore) Get(key string) (string, bool) {
	rep, ok := r.do("GET", key)
	if !ok || rep.Null {
		return "", false
	}
	return rep.Str, true
}

// Del implements KV.
func (r *RemoteStore) Del(key string) bool {
	rep, ok := r.do("DEL", key)
	return ok && rep.Int == 1
}

// HSet implements KV.
func (r *RemoteStore) HSet(key, field, value string) bool {
	rep, ok := r.do("HSET", key, field, value)
	return ok && rep.Int == 1
}

// HGet implements KV.
func (r *RemoteStore) HGet(key, field string) (string, bool) {
	rep, ok := r.do("HGET", key, field)
	if !ok || rep.Null {
		return "", false
	}
	return rep.Str, true
}

// HDel implements KV.
func (r *RemoteStore) HDel(key, field string) bool {
	rep, ok := r.do("HDEL", key, field)
	return ok && rep.Int == 1
}

// HGetAll implements KV.
func (r *RemoteStore) HGetAll(key string) map[string]string {
	rep, ok := r.do("HGETALL", key)
	out := make(map[string]string)
	if !ok {
		return out
	}
	for i := 0; i+1 < len(rep.Array); i += 2 {
		out[rep.Array[i].Str] = rep.Array[i+1].Str
	}
	return out
}

// RPush implements KV.
func (r *RemoteStore) RPush(key string, values ...string) int {
	args := append([]string{"RPUSH", key}, values...)
	rep, ok := r.do(args...)
	if !ok {
		return 0
	}
	return int(rep.Int)
}

// LPop implements KV.
func (r *RemoteStore) LPop(key string) (string, bool) {
	rep, ok := r.do("LPOP", key)
	if !ok || rep.Null {
		return "", false
	}
	return rep.Str, true
}

// LLen implements KV.
func (r *RemoteStore) LLen(key string) int {
	rep, ok := r.do("LLEN", key)
	if !ok {
		return 0
	}
	return int(rep.Int)
}

var _ KV = (*RemoteStore)(nil)
