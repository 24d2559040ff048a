package kvstore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fingerprint renders the complete store state as one deterministic string
// — the snapshot encoding itself, which is exactly what recovery promises
// to reproduce — so those tests can assert exact state equality.
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
	s, err := Open(dir)
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
	s2, err := Open(dir)
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
	// scribble's 78 appends pass compactFloor, so recovery exercises
	// snapshot load + AOF tail.
	s, err := Open(dir)
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

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(s2); got != want {
		t.Fatalf("post-compaction recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFailedCompactionWaitsItsTurn: an auto-compaction that fails is
// reported, not swallowed, and is not retried on the very next write — the
// next attempt comes as many appends later (compactFloor, for a store this
// small), and until then every write still lands in the current generation.
func TestFailedCompactionWaitsItsTurn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where generation 2's log goes makes the compaction fail.
	if err := os.Mkdir(aofPath(dir, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	set := func(from, to int) {
		for i := from; i < to; i++ {
			s.Set("k"+strconv.Itoa(i), strconv.Itoa(i))
		}
	}
	set(0, compactFloor)
	if err := os.Remove(aofPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	set(compactFloor, compactFloor+1)
	if _, err := os.Stat(snapPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("compaction retried on the write after the failure: stat snap-2 = %v", err)
	}
	set(compactFloor+1, 2*compactFloor)
	if _, err := os.Stat(snapPath(dir, 2)); err != nil {
		t.Fatalf("compaction not retried compactFloor appends later: %v", err)
	}
	want := fingerprint(s)
	if err := s.Close(); err == nil {
		t.Fatal("Close reported no error after a failed compaction")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2*compactFloor {
		t.Fatalf("recovered %d keys, want %d", s2.Len(), 2*compactFloor)
	}
	if got := fingerprint(s2); got != want {
		t.Fatalf("recovery after a failed compaction differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestCrashWithoutCloseRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scribble(s)
	want := fingerprint(s)
	// No Close: simulate a crash by abandoning the store. fsync=always
	// means every append already hit disk.
	s2, err := Open(dir)
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
	s, err := Open(dir)
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
	s2, err := Open(dir)
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
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, ok := s3.Get("after-tear"); !ok || v != "ok" {
		t.Fatal("append after truncation lost")
	}
}

// TestAofConcurrentWriters exercises the AOF writer and auto-compaction
// (about forty of them: the store stays a few dozen commands big) under
// parallel mutators; run with -race.
func TestAofConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
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
	s2, err := Open(dir)
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

// logOnDisk counts the commands the store's log files hold — every append
// is flushed and fsynced before it returns, so this is what a recovery from
// dir would replay. It also returns the generation of the committed
// snapshot, 0 if there is none.
func logOnDisk(t *testing.T, s *Store, dir string) (cmds, gen int) {
	t.Helper()
	if err := s.aof.err; err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "snap-"); ok {
			gen = g
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(f)
		for {
			if _, err := readCommand(br); err != nil {
				break
			}
			cmds++
		}
		f.Close()
	}
	return cmds, gen
}

// TestCompactionPacedByLiveSize, churn: a store that never holds more than
// ten keys compacts every compactFloor appends, so however many writes it
// takes, its log stays under 2·live + compactFloor commands.
func TestCompactionPacedByLiveSize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maxLive = 10
	gen := 0
	for i := 0; i < 10000; i++ {
		s.HSet("churn:"+strconv.Itoa(i%maxLive), "f", strconv.Itoa(i))
		s.HDel("churn:"+strconv.Itoa((i+maxLive/2)%maxLive), "f")
		if i%500 == 499 {
			var n int
			n, gen = logOnDisk(t, s, dir)
			if n > 2*maxLive+compactFloor {
				t.Fatalf("after %d pairs the log holds %d commands, want at most %d",
					i+1, n, 2*maxLive+compactFloor)
			}
		}
	}
	if gen < 101 {
		t.Fatalf("20000 appends took %d snapshots, want at least 100", gen-1)
	}
}

// TestCompactionUnderGrowth: a store that only grows doubles between
// compactions, so the snapshot commands written stay under twice the
// appends, and recovery reads back the same store.
func TestCompactionUnderGrowth(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const appends = 5000
	before := mSnapCmds.Value()
	for i := 0; i < appends; i++ {
		s.Set("k"+strconv.Itoa(i), strconv.Itoa(i))
	}
	if n := mSnapCmds.Value() - before; n == 0 || n > 2*appends {
		t.Fatalf("%d appends wrote %d snapshot commands, want 1 to %d", appends, n, 2*appends)
	}
	want := fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := fingerprint(s2); got != want {
		t.Fatal("recovery after growth differs")
	}
}
