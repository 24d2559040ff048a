package kvstore

import (
	"strings"
	"testing"
	"time"
)

// waitParity polls until the replica has applied everything the primary
// logged.
func waitParity(t *testing.T, primary *Store, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Applied() != primary.ReplOffset() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: applied %d, primary offset %d",
				r.Applied(), primary.ReplOffset())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicaConvergenceAndPromotion(t *testing.T) {
	primary := New()
	srv, err := Serve(primary, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// State written before the replica attaches arrives via the snapshot...
	primary.Set("pre", "snapshot")
	primary.HSet("h", "f1", "v1")
	primary.RPush("q", "a", "b", "c")

	replica := New()
	repl, err := StartReplica(srv.Addr(), replica)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := replica.Get("pre"); !ok || v != "snapshot" {
		t.Fatalf("snapshot not applied: %q %v", v, ok)
	}

	// ...and everything after via the live stream.
	scribble(primary)
	primary.Del("pre")
	waitParity(t, primary, repl)
	if pw, rw := fingerprint(primary), fingerprint(replica); pw != rw {
		t.Fatalf("replica state differs:\nprimary:\n%s\nreplica:\n%s", pw, rw)
	}

	// Promotion: stop following, the replica store accepts writes on its own.
	repl.Stop()
	replica.Set("post-promotion", "mine")
	if _, ok := primary.Get("post-promotion"); ok {
		t.Fatal("write leaked back to the old primary")
	}
	if v, _ := replica.Get("post-promotion"); v != "mine" {
		t.Fatal("promoted replica lost a write")
	}
}

func TestReplicaOfWireCommand(t *testing.T) {
	primary := New()
	psrv, err := Serve(primary, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	replica := New()
	rsrv, err := Serve(replica, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	cl, err := Dial(rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	primary.Set("k", "v1")
	if rep, err := cl.Do("REPLICAOF", psrv.Addr()); err != nil || rep.Str != "OK" {
		t.Fatalf("replicaof = %+v, %v", rep, err)
	}
	if v, ok := replica.Get("k"); !ok || v != "v1" {
		t.Fatalf("full sync missed k: %q %v", v, ok)
	}
	rep, err := cl.Do("REPLINFO")
	if err != nil || !strings.Contains(rep.Str, "role=replica") {
		t.Fatalf("replinfo = %+v, %v", rep, err)
	}

	primary.Set("k2", "v2")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := replica.Get("k2"); ok && v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("streamed write never reached the replica")
		}
		time.Sleep(time.Millisecond)
	}

	if rep, err := cl.Do("REPLICAOF", "NO", "ONE"); err != nil || rep.Str != "OK" {
		t.Fatalf("replicaof no one = %+v, %v", rep, err)
	}
	rep, err = cl.Do("REPLINFO")
	if err != nil || !strings.Contains(rep.Str, "role=primary") {
		t.Fatalf("replinfo after promotion = %+v, %v", rep, err)
	}
}

func TestSlowFeedDropped(t *testing.T) {
	s := New()
	_, _, f := s.SyncFeed(1)
	// Nobody drains the feed: the second undeliverable command drops it
	// rather than stalling writers.
	s.Set("a", "1")
	s.Set("b", "2")
	s.Set("c", "3")
	if n := s.FeedCount(); n != 0 {
		t.Fatalf("slow feed still registered (%d)", n)
	}
	// The channel closed; draining terminates.
	got := 0
	for range f.C() {
		got++
	}
	if got != 1 {
		t.Fatalf("buffered commands = %d, want 1", got)
	}
	// Close after drop is a no-op.
	f.Close()
}

func TestDurableReplicaChain(t *testing.T) {
	// A replica opened with Open re-logs the stream into its own AOF: after
	// the primary dies, the replica can itself crash and recover.
	primary := New()
	srv, err := Serve(primary, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	replica, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := StartReplica(srv.Addr(), replica)
	if err != nil {
		t.Fatal(err)
	}
	scribble(primary)
	waitParity(t, primary, repl)
	want := fingerprint(replica)
	repl.Stop()

	// Crash the replica (abandon, no Close) and recover it from disk.
	recovered, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := fingerprint(recovered); got != want {
		t.Fatalf("recovered replica differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
