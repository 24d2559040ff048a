package main

import (
	"bytes"
	"flag"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tero/internal/dist"
	"tero/internal/kvstore"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 18

// syncBuffer is a bytes.Buffer the command can write while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSingleProcessRunPrintsSummary boots the whole system on a tiny world
// and holds the run to the summary lines check.sh's chaos smoke cuts its
// tables from.
func TestSingleProcessRunPrintsSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("the simulated platform's rate limit makes this ~16 s of wall sleep")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-streamers", "5", "-days", "1", "-log", "error"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	for _, want := range []string{
		`(?m)^generating world: 5 streamers, 1 days \(seed 1\)\.\.\.$`,
		`(?m)^thumbnails processed:  [1-9][0-9]*$`,
		`(?m)^measurements:          [1-9][0-9]* \(missed [0-9]+, lobby zeros [0-9]+\)$`,
		`(?m)^streamers located:     [0-9]+ \(unlocatable [0-9]+\)$`,
		`(?m)^latency distributions per \{location, game\}`,
	} {
		if !regexp.MustCompile(want).MatchString(stdout.String()) {
			t.Errorf("stdout lacks %s:\n%s", want, &stdout)
		}
	}
}

// reopen reads a -kv-dir back the way the next run would.
func reopen(t *testing.T, dir string) *kvstore.Store {
	t.Helper()
	st, err := kvstore.Open(dir, kvstore.PersistOptions{})
	if err != nil {
		t.Fatalf("the failed run left a store that does not reopen: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestDistributedListenFailureExitsOne: a coordinator that cannot listen
// returns 1 through its deferred cleanups, and the durable store it had
// already opened reopens cleanly.
func TestDistributedListenFailureExitsOne(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-streamers", "5", "-days", "1", "-log", "error",
		"-distributed", "1", "-listen", occupied.Addr().String(), "-kv-dir", dir}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "serve "+occupied.Addr().String()) {
		t.Fatalf("exit %d, want 1 and a listen error\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	reopen(t, dir)
}

// TestDistributedRunFailureFlushesStore: the fleet's only worker joins and
// then dies, so the run fails mid-tick ("no live workers") with writes still
// in the append-only log's buffer — -kv-fsync never flushes only on Close.
// The store read back must hold the run's state up to its last write, the
// dead worker's removal from the roster.
func TestDistributedRunFailureFlushesStore(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-streamers", "5", "-days", "1", "-log", "error",
			"-distributed", "1", "-listen", "127.0.0.1:0",
			"-kv-dir", dir, "-kv-fsync", kvstore.FsyncNever}, &stdout, &stderr)
	}()
	// awaitLine polls the command's stdout for a line and returns its match.
	awaitLine := func(re string) []string {
		t.Helper()
		rx := regexp.MustCompile(re)
		deadline := time.Now().Add(30 * time.Second)
		for {
			if m := rx.FindStringSubmatch(stdout.String()); m != nil {
				return m
			}
			select {
			case code := <-exit:
				t.Fatalf("tero exited %d before printing %s:\n%s%s", code, re, stdout.String(), stderr.String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("tero never printed %s:\n%s%s", re, stdout.String(), stderr.String())
			}
			time.Sleep(time.Millisecond)
		}
	}
	addr := awaitLine(`(?m)^coordinator: store\+objects at (\S+) `)[1]
	halt := make(chan struct{})
	worker := make(chan error, 1)
	go func() { worker <- dist.RunWorker(dist.WorkerConfig{ID: "w1", StoreAddr: addr, Halt: halt}) }()
	awaitLine(`(?m)^1 workers registered$`)
	close(halt)
	if err := <-worker; err != nil {
		t.Fatalf("halted worker: %v", err)
	}
	if code := <-exit; code != 1 || !strings.Contains(stderr.String(), "no live workers") {
		t.Fatalf("exit %d, want 1 and \"no live workers\"\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}

	st := reopen(t, dir)
	if _, ok := st.Get(dist.KeyPlatform); !ok {
		t.Errorf("%s not recovered: the run's first write is missing", dist.KeyPlatform)
	}
	if _, ok := st.HGet(dist.KeyWorkers, "w1"); ok {
		t.Errorf("w1 still on the recovered roster: the log's tail was not flushed")
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replicas"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "flag provided but not defined: -replicas"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, &stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-kv-dir") {
		t.Errorf("usage lacks -kv-dir:\n%s", &stderr)
	}
}

// TestFlagSurfaceBounded keeps the flag count from silently regrowing.
func TestFlagSurfaceBounded(t *testing.T) {
	fs := flag.NewFlagSet("tero", flag.ContinueOnError)
	new(options).register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > maxFlags {
		t.Errorf("tero declares %d flags, want at most %d", n, maxFlags)
	}
}
