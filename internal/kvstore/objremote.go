package kvstore

import "sort"

// RemoteObjects is the sending end of the object frame: what a fleet worker
// pushes extraction results (and quarantined thumbnails) into the
// coordinator's object store with. It only puts — nothing reads objects
// back over the wire — and unlike RemoteStore it returns its errors: a push
// that did not arrive is a reading lost, so the caller must know.
type RemoteObjects struct {
	c *Client
}

// DialObjects connects to a kvstore server with an attached object store.
func DialObjects(addr string) (*RemoteObjects, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteObjects{c: c}, nil
}

// Close closes the underlying connection.
func (r *RemoteObjects) Close() error { return r.c.Close() }

// Put stores an object and returns its etag. Metadata fields go over the
// wire in sorted order so the command bytes are deterministic. The error is
// the transport's, or the server's refusal (no object store attached).
func (r *RemoteObjects) Put(bucket, key string, data []byte, meta map[string]string) (string, error) {
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
	rep, err := r.c.Do(args...)
	if err != nil {
		return "", err
	}
	return rep.Str, nil
}
