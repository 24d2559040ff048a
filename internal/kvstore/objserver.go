package kvstore

import (
	"bufio"

	"tero/internal/objstore"
)

// The object frame, over the same RESP connection as the key-value commands
// (the kvstore is the coordination substrate; attaching the object store to
// it gives workers one address for both). RESP bulk strings are
// length-prefixed and binary-safe, so result documents and the occasional
// quarantined thumbnail ride unmodified.
//
//	OPUT bucket key data [field value]...  -> bulk etag
//
// It is the only object command because it is the only one with a sender:
// fleet workers push with it (kvstore.RemoteObjects), and the coordinator
// reads, lists and deletes through the attached *objstore.Store directly,
// in its own process.
//
// Object data is intentionally outside the AOF/replication stream: objects
// are transit freight (a result is deleted as soon as the coordinator has
// ingested it; thumbnails never leave the worker that fetched them, §7),
// not durable coordination state.

// AttachObjects exposes an object store through this server's wire protocol.
// Must be called before clients issue OPUT; safe to call once around server
// construction.
func (s *Server) AttachObjects(o *objstore.Store) {
	s.mu.Lock()
	s.objects = o
	s.mu.Unlock()
}

// putObject handles OPUT.
func (s *Server) putObject(w *bufio.Writer, args []string) error {
	s.mu.Lock()
	obj := s.objects
	s.mu.Unlock()
	if obj == nil {
		return writeError(w, "no object store attached")
	}
	if len(args) < 4 || len(args)%2 != 0 {
		return writeError(w, "OPUT needs bucket key data [field value]...")
	}
	var meta map[string]string
	if len(args) > 4 {
		meta = make(map[string]string, (len(args)-4)/2)
		for i := 4; i+1 < len(args); i += 2 {
			meta[args[i]] = args[i+1]
		}
	}
	return writeBulk(w, obj.Put(args[1], args[2], []byte(args[3]), meta))
}
