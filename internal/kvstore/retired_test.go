package kvstore

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"tero/internal/objstore"
)

// retiredCommands is every Redis command the store once imitated and no
// caller ever sent, each with arguments a Redis-shaped dispatcher would
// accept. The names appear here and in the fuzz corpus, nowhere else in the
// tree.
var retiredCommands = [][]string{
	{"SETEX", "k", "100", "v"},
	{"SETAT", "k", "v", "1"},
	{"EXPIRE", "k", "100"},
	{"EXPIREAT", "k", "1"},
	{"INCR", "k"},
	{"KEYS", ""},
	{"LPUSH", "k", "v"},
	{"RPOP", "k"},
	{"LRANGE", "k", "0", "-1"},
}

// retiredObjectCommands is the object frames that lost their last sender
// when thumbnails stopped crossing the wire: only OPUT is left.
var retiredObjectCommands = [][]string{
	{"OGET", "b", "k"},
	{"OHEAD", "b", "k"},
	{"ODEL", "b", "k"},
	{"OLIST", "b", ""},
	{"OSIZE", "b"},
}

// render flattens a reply for table comparison.
func render(r Reply) string {
	switch {
	case r.Null:
		return "null"
	case r.Kind == ':':
		return fmt.Sprintf(":%d", r.Int)
	case r.Kind == '*':
		parts := make([]string, len(r.Array))
		for i, el := range r.Array {
			parts[i] = render(el)
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		return string(r.Kind) + r.Str
	}
}

// TestWireCommandTable pins the whole data surface of the wire: the ten kept
// commands and PING answer as they always did, and every retired name — the
// object reads too, with an object store attached — is an unknown command
// that touches nothing.
func TestWireCommandTable(t *testing.T) {
	srv, cl := newServerClient(t)
	objects := objstore.New()
	objects.Put("b", "k", []byte("v"), nil)
	srv.AttachObjects(objects)
	kept := []struct {
		cmd  []string
		want string
	}{
		{[]string{"PING"}, "+PONG"},
		{[]string{"SET", "k", "v"}, "+OK"},
		{[]string{"GET", "k"}, "$v"},
		{[]string{"DEL", "k"}, ":1"},
		{[]string{"DEL", "k"}, ":0"},
		{[]string{"GET", "k"}, "null"},
		{[]string{"HSET", "h", "f", "v"}, ":1"},
		{[]string{"HSET", "h", "e", "w"}, ":1"},
		{[]string{"HGET", "h", "f"}, "$v"},
		{[]string{"HGETALL", "h"}, "[$e $w $f $v]"},
		{[]string{"HDEL", "h", "f"}, ":1"},
		{[]string{"RPUSH", "l", "a", "b"}, ":2"},
		{[]string{"LLEN", "l"}, ":2"},
		{[]string{"LPOP", "l"}, "$a"},
		{[]string{"lpop", "l"}, "$b"}, // names are case-insensitive
		{[]string{"LPOP", "l"}, "null"},
	}
	for _, c := range kept {
		rep, err := cl.Do(c.cmd...)
		if err != nil || render(rep) != c.want {
			t.Fatalf("%v = %s, %v; want %s", c.cmd, render(rep), err, c.want)
		}
	}
	before := fingerprint(srv.store)
	for _, cmd := range slices.Concat(retiredCommands, retiredObjectCommands) {
		rep, err := cl.Do(cmd...)
		if err == nil || rep.Kind != '-' || rep.Str != "ERR unknown command "+cmd[0] {
			t.Fatalf("%v = %s, %v; want -ERR unknown command", cmd, render(rep), err)
		}
	}
	if after := fingerprint(srv.store); after != before {
		t.Fatalf("retired commands changed the store:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if o, err := objects.Get("b", "k"); err != nil || string(o.Data) != "v" || objects.Size("b") != 1 {
		t.Fatalf("retired commands changed the object store: %+v, %v", o, err)
	}
}

// writeLog writes commands to path in the log's own framing.
func writeLog(t *testing.T, path string, cmds ...[]string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, c := range cmds {
		if err := writeCmd(w, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFormsInLogs: a log written by an older build is not migrated. A
// retired form in the AOF tail is skipped with a warning like any other
// undecodable command, its neighbours still replay; in a snapshot, which is
// strict, it fails Open by name.
func TestRetiredFormsInLogs(t *testing.T) {
	for _, cmd := range retiredCommands {
		dir := t.TempDir()
		writeLog(t, aofPath(dir, 1), []string{"SET", "before", "1"}, cmd, []string{"SET", "after", "2"})
		s, err := Open(dir, PersistOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("aof holding %v: %v", cmd, err)
		}
		_, a := s.Get("before")
		_, b := s.Get("after")
		if !a || !b || s.Len() != 2 {
			t.Fatalf("aof holding %v replayed to:\n%s", cmd, fingerprint(s))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		dir = t.TempDir()
		writeLog(t, snapPath(dir, 1), []string{"SET", "before", "1"}, cmd)
		if s, err := Open(dir, PersistOptions{Fsync: FsyncNever}); err == nil ||
			!strings.Contains(err.Error(), "unknown logged command") {
			if s != nil {
				s.Close()
			}
			t.Fatalf("snapshot holding %v: err = %v, want unknown logged command", cmd, err)
		}
	}
}
