package kvstore

import (
	"bufio"
	"sort"
	"strconv"

	"tero/internal/objstore"
)

// Object-store commands over the same RESP connection as the key-value
// commands (the kvstore is the coordination substrate; attaching the object
// store to it gives workers one address for both). RESP bulk strings are
// length-prefixed and binary-safe, so result documents and the occasional
// quarantined thumbnail ride unmodified.
//
//	OPUT  bucket key data [field value]...  -> bulk etag
//	OGET  bucket key                        -> array [etag, modtime-unixnano, data, field, value, ...]
//	OHEAD bucket key                        -> array [etag, modtime-unixnano, field, value, ...]
//	ODEL  bucket key                        -> int 1/0
//	OLIST bucket prefix                     -> array of keys (sorted)
//	OSIZE bucket                            -> int
//
// Object data is intentionally outside the AOF/replication stream: objects
// are transit freight (a result is deleted as soon as the coordinator has
// ingested it; thumbnails never leave the worker that fetched them, §7),
// not durable coordination state.

// AttachObjects exposes an object store through this server's wire protocol.
// Must be called before clients issue O* commands; safe to call once around
// server construction.
func (s *Server) AttachObjects(o *objstore.Store) {
	s.mu.Lock()
	s.objects = o
	s.mu.Unlock()
}

func (s *Server) objectStore() *objstore.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objects
}

// dispatchObject handles the O* command family; cmd is already upper-cased.
// Returns handled=false for unknown O-prefixed commands so dispatch can fall
// through to its normal unknown-command error.
func (s *Server) dispatchObject(w *bufio.Writer, cmd string, args []string) (bool, error) {
	switch cmd {
	case "OPUT", "OGET", "OHEAD", "ODEL", "OLIST", "OSIZE":
	default:
		return false, nil
	}
	obj := s.objectStore()
	if obj == nil {
		return true, writeError(w, "no object store attached")
	}
	switch cmd {
	case "OPUT":
		if len(args) < 4 || len(args)%2 != 0 {
			return true, writeError(w, "OPUT needs bucket key data [field value]...")
		}
		var meta map[string]string
		if len(args) > 4 {
			meta = make(map[string]string, (len(args)-4)/2)
			for i := 4; i+1 < len(args); i += 2 {
				meta[args[i]] = args[i+1]
			}
		}
		etag := obj.Put(args[1], args[2], []byte(args[3]), meta)
		return true, writeBulk(w, etag)
	case "OGET", "OHEAD":
		if len(args) != 3 {
			return true, writeError(w, cmd+" needs bucket key")
		}
		var o *objstore.Object
		var err error
		if cmd == "OGET" {
			o, err = obj.Get(args[1], args[2])
		} else {
			o, err = obj.Head(args[1], args[2])
		}
		if err != nil {
			return true, writeNull(w)
		}
		// Sorted metadata fields: deterministic wire bytes, same discipline
		// as HGETALL.
		fields := make([]string, 0, len(o.Meta))
		for f := range o.Meta {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		head := 2
		if cmd == "OGET" {
			head = 3
		}
		if err := writeArray(w, head+2*len(fields)); err != nil {
			return true, err
		}
		if err := writeBulk(w, o.ETag); err != nil {
			return true, err
		}
		if err := writeBulk(w, strconv.FormatInt(o.ModTime.UnixNano(), 10)); err != nil {
			return true, err
		}
		if cmd == "OGET" {
			if err := writeBulk(w, string(o.Data)); err != nil {
				return true, err
			}
		}
		for _, f := range fields {
			if err := writeBulk(w, f); err != nil {
				return true, err
			}
			if err := writeBulk(w, o.Meta[f]); err != nil {
				return true, err
			}
		}
		return true, nil
	case "ODEL":
		if len(args) != 3 {
			return true, writeError(w, "ODEL needs bucket key")
		}
		if obj.Delete(args[1], args[2]) == nil {
			return true, writeInt(w, 1)
		}
		return true, writeInt(w, 0)
	case "OLIST":
		if len(args) != 3 {
			return true, writeError(w, "OLIST needs bucket prefix")
		}
		keys := obj.List(args[1], args[2])
		if err := writeArray(w, len(keys)); err != nil {
			return true, err
		}
		for _, k := range keys {
			if err := writeBulk(w, k); err != nil {
				return true, err
			}
		}
		return true, nil
	default: // OSIZE
		if len(args) != 2 {
			return true, writeError(w, "OSIZE needs bucket")
		}
		return true, writeInt(w, int64(obj.Size(args[1])))
	}
}
