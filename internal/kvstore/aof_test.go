package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fingerprint renders the complete store state as one deterministic string
// — the snapshot encoding itself, which is exactly what recovery and
// replication promise to reproduce — so those tests can assert exact state
// equality.
func fingerprint(s *Store) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sb strings.Builder
	for _, c := range s.snapshotCmdsLocked() {
		fmt.Fprintf(&sb, "%q\n", c)
	}
	return sb.String()
}

// scribble applies a representative barrage of every logged command type.
func scribble(s *Store) {
	for i := 0; i < 20; i++ {
		s.Set("str:"+strconv.Itoa(i), strings.Repeat("v", i+1))
	}
	s.Set("plain", "overwritten")
	s.Set("plain", "final")
	s.Del("str:3")
	for i := 0; i < 10; i++ {
		s.HSet("hash", "f"+strconv.Itoa(i), "hv"+strconv.Itoa(i))
	}
	s.HDel("hash", "f0")
	s.HSet("hash2", "only", "x")
	s.HDel("hash2", "only") // drains hash2 entirely
	for i := 0; i < 30; i++ {
		s.RPush("queue", "item"+strconv.Itoa(i))
	}
	for i := 0; i < 8; i++ {
		s.LPop("queue")
	}
	s.RPush("drained", "a", "b")
	s.LPop("drained")
	s.LPop("drained")
	s.HSet("queue", "also", "a hash") // two types live under one key
}

func TestOpenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	scribble(s)
	want := fingerprint(s)
	if want == "" {
		t.Fatal("empty fingerprint — scribble wrote nothing?")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before := mAofReplayed.Value()
	s2, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(s2); got != want {
		t.Fatalf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if mAofReplayed.Value() == before {
		t.Fatal("replay counter did not advance")
	}
}

func TestRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	// Compact aggressively so recovery exercises snapshot load + AOF tail.
	opt := PersistOptions{Fsync: FsyncAlways, CompactEvery: 25}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	scribble(s)
	want := fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction advanced generations and dropped the old files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) != 2 {
		t.Fatalf("want exactly one snap+aof pair after compaction, got %v", names)
	}
	if _, ok := parseGen(names[0], "aof-"); !ok {
		t.Fatalf("unexpected files %v", names)
	}
	g, ok := parseGen(names[1], "snap-")
	if !ok || g < 2 {
		t.Fatalf("expected an advanced snapshot generation, got %v", names)
	}

	s2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(s2); got != want {
		t.Fatalf("post-compaction recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestCrashWithoutCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	scribble(s)
	want := fingerprint(s)
	// No Close: simulate a crash by abandoning the store. fsync=always
	// means every append already hit disk.
	s2, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(s2); got != want {
		t.Fatalf("crash recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestTornAofTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	scribble(s)
	want := fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a half-written append from a crash mid-write.
	var aof string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, ok := parseGen(e.Name(), "aof-"); ok {
			aof = filepath.Join(dir, e.Name())
		}
	}
	if aof == "" {
		t.Fatal("no aof file found")
	}
	f, err := os.OpenFile(aof, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("*3\r\n$3\r\nSET\r\n$4\r\nhalf"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := mAofTruncated.Value()
	s2, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(s2); got != want {
		t.Fatalf("state after torn-tail recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if mAofTruncated.Value() == before {
		t.Fatal("truncation counter did not advance")
	}
	// The store keeps appending past the healed tail.
	s2.Set("after-tear", "ok")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, PersistOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, ok := s3.Get("after-tear"); !ok || v != "ok" {
		t.Fatal("append after truncation lost")
	}
}

// TestAofConcurrentWriters exercises the AOF writer, the background fsync
// ticker and auto-compaction under parallel mutators; run with -race.
func TestAofConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	opt := PersistOptions{Fsync: FsyncInterval, FsyncEvery: time.Millisecond, CompactEvery: 50}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Set(fmt.Sprintf("k%d", g), strconv.Itoa(i))
				s.RPush("q", fmt.Sprintf("%d-%d", g, i))
				s.HSet("h", fmt.Sprintf("f%d", g), strconv.Itoa(i))
				if i%3 == 0 {
					s.LPop("q")
				}
			}
		}(g)
	}
	wg.Wait()
	want := fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// 800 pushes, and each writer pops (after its own push) on every third
	// iteration: 8 x 34 pops, none of them on an empty list.
	if n := s2.LLen("q"); n != 800-8*34 {
		t.Fatalf("recovered queue length = %d, want %d", n, 800-8*34)
	}
	if got := fingerprint(s2); got != want {
		t.Fatalf("concurrent-write recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestOpenRejectsBadFsyncPolicy(t *testing.T) {
	if _, err := Open(t.TempDir(), PersistOptions{Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}
