package kvstore

import (
	"sort"
	"strconv"
	"time"

	"tero/internal/objstore"
)

// RemoteObjects adapts a RESP Client to the objstore.API interface: the
// networked object store distributed workers push extraction results (and
// quarantined thumbnails) through. Like RemoteStore, the interface itself is error-free;
// the first transport error is recorded in Err and reads then return
// not-found/zero values.
type RemoteObjects struct {
	c *Client
	// Err records the first transport error encountered.
	Err error
}

// NewRemoteObjects wraps a client.
func NewRemoteObjects(c *Client) *RemoteObjects { return &RemoteObjects{c: c} }

// DialObjects connects to a kvstore server (with an attached object store)
// and returns an objstore.API over it.
func DialObjects(addr string) (*RemoteObjects, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewRemoteObjects(c), nil
}

// Close closes the underlying connection.
func (r *RemoteObjects) Close() error { return r.c.Close() }

// Client exposes the underlying RESP client (e.g. to set its redial budget).
func (r *RemoteObjects) Client() *Client { return r.c }

func (r *RemoteObjects) do(args ...string) (Reply, bool) {
	rep, err := r.c.Do(args...)
	if err != nil {
		if r.Err == nil {
			r.Err = err
		}
		return Reply{}, false
	}
	return rep, true
}

// Put implements objstore.API. Metadata fields go over the wire in sorted
// order so the command bytes are deterministic.
func (r *RemoteObjects) Put(bucket, key string, data []byte, meta map[string]string) string {
	args := make([]string, 0, 4+2*len(meta))
	args = append(args, "OPUT", bucket, key, string(data))
	fields := make([]string, 0, len(meta))
	for f := range meta {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		args = append(args, f, meta[f])
	}
	rep, ok := r.do(args...)
	if !ok {
		return ""
	}
	return rep.Str
}

// decodeObject unpacks an OGET/OHEAD reply array.
func decodeObject(key string, rep Reply, withData bool) (*objstore.Object, error) {
	if rep.Null || len(rep.Array) < 2 {
		return nil, objstore.ErrNotFound
	}
	o := &objstore.Object{Key: key, ETag: rep.Array[0].Str}
	if ns, err := strconv.ParseInt(rep.Array[1].Str, 10, 64); err == nil {
		o.ModTime = time.Unix(0, ns)
	}
	i := 2
	if withData {
		if len(rep.Array) < 3 {
			return nil, objstore.ErrNotFound
		}
		o.Data = []byte(rep.Array[2].Str)
		i = 3
	}
	if i < len(rep.Array) {
		o.Meta = make(map[string]string, (len(rep.Array)-i)/2)
		for ; i+1 < len(rep.Array); i += 2 {
			o.Meta[rep.Array[i].Str] = rep.Array[i+1].Str
		}
	}
	return o, nil
}

// Get implements objstore.API.
func (r *RemoteObjects) Get(bucket, key string) (*objstore.Object, error) {
	rep, ok := r.do("OGET", bucket, key)
	if !ok {
		return nil, objstore.ErrNotFound
	}
	return decodeObject(key, rep, true)
}

// Head implements objstore.API.
func (r *RemoteObjects) Head(bucket, key string) (*objstore.Object, error) {
	rep, ok := r.do("OHEAD", bucket, key)
	if !ok {
		return nil, objstore.ErrNotFound
	}
	return decodeObject(key, rep, false)
}

// Delete implements objstore.API.
func (r *RemoteObjects) Delete(bucket, key string) error {
	rep, ok := r.do("ODEL", bucket, key)
	if !ok || rep.Int != 1 {
		return objstore.ErrNotFound
	}
	return nil
}

// List implements objstore.API.
func (r *RemoteObjects) List(bucket, prefix string) []string {
	rep, ok := r.do("OLIST", bucket, prefix)
	if !ok {
		return nil
	}
	var out []string
	for _, e := range rep.Array {
		out = append(out, e.Str)
	}
	return out
}

// Size implements objstore.API.
func (r *RemoteObjects) Size(bucket string) int {
	rep, ok := r.do("OSIZE", bucket)
	if !ok {
		return 0
	}
	return int(rep.Int)
}

var _ objstore.API = (*RemoteObjects)(nil)
