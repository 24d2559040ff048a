package kvstore

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
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

// retiredObjectCommands is the object frames, retired once nothing crossed
// the wire as an object: thumbnails stay with the process that fetched them,
// and results ride a hash.
var retiredObjectCommands = [][]string{
	{"OPUT", "b", "k", "v"},
	{"OGET", "b", "k"},
	{"OHEAD", "b", "k"},
	{"ODEL", "b", "k"},
	{"OLIST", "b", ""},
	{"OSIZE", "b"},
}

// retiredReplicationCommands is the replication handshake and role switch,
// retired with replication itself: a store recovers by restarting from its
// log, never by following another.
var retiredReplicationCommands = [][]string{
	{"SYNC"},
	{"REPLICAOF", "127.0.0.1:6379"},
	{"REPLICAOF", "NO", "ONE"},
	{"REPLINFO"},
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
// object frames and the replication commands too — is an unknown command
// that touches nothing.
func TestWireCommandTable(t *testing.T) {
	srv, cl := newServerClient(t)
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
	for _, cmd := range slices.Concat(retiredCommands, retiredObjectCommands, retiredReplicationCommands) {
		rep, err := cl.Do(cmd...)
		if err == nil || rep.Kind != '-' || rep.Str != "ERR unknown command "+cmd[0] {
			t.Fatalf("%v = %s, %v; want -ERR unknown command", cmd, render(rep), err)
		}
	}
	if after := fingerprint(srv.store); after != before {
		t.Fatalf("retired commands changed the store:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestReplicaOfWireCommand: pointed at a live primary, a server answers every
// replication command as unknown, pulls none of the primary's keys, and stays
// a writable store of its own.
func TestReplicaOfWireCommand(t *testing.T) {
	primary := New()
	psrv, err := Serve(primary, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	primary.Set("k", "v1")
	srv, cl := newServerClient(t)

	for _, cmd := range slices.Concat([][]string{{"REPLICAOF", psrv.Addr()}}, retiredReplicationCommands) {
		rep, err := cl.Do(cmd...)
		if err == nil || rep.Kind != '-' || rep.Str != "ERR unknown command "+cmd[0] {
			t.Fatalf("%v = %s, %v; want -ERR unknown command", cmd, render(rep), err)
		}
	}
	if n := srv.store.Len(); n != 0 {
		t.Fatalf("replication commands pulled %d keys:\n%s", n, fingerprint(srv.store))
	}
	if rep, err := cl.Do("SET", "k", "own"); err != nil || rep.Str != "OK" {
		t.Fatalf("set after refused replicaof = %+v, %v", rep, err)
	}
	if v, ok := srv.store.Get("k"); !ok || v != "own" {
		t.Fatalf("k = %q %v, want own", v, ok)
	}
	if v, _ := primary.Get("k"); v != "v1" {
		t.Fatalf("primary k = %q, want v1", v)
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
		s, err := Open(dir)
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
		if s, err := Open(dir); err == nil ||
			!strings.Contains(err.Error(), "unknown logged command") {
			if s != nil {
				s.Close()
			}
			t.Fatalf("snapshot holding %v: err = %v, want unknown logged command", cmd, err)
		}
	}
}
