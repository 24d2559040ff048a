package main

import (
	"bytes"
	"context"
	"flag"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tero/internal/kvstore"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 4

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

// boot starts the command and waits for its address announcement. stop
// cancels its context — what SIGTERM does under main — and returns the exit
// code and everything it printed.
func boot(t *testing.T, args ...string) (addr string, stop func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, args, &stdout, &stderr) }()
	stop = func() (int, string) {
		cancel()
		return <-exit, stdout.String() + stderr.String()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(stdout.String(), "\n") {
			if a, ok := strings.CutPrefix(line, "terokv listening at "); ok {
				return a, stop
			}
		}
		select {
		case code := <-exit:
			t.Fatalf("terokv exited %d before announcing:\n%s%s", code, stdout.String(), stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("no address announcement:\n%s%s", stdout.String(), stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// exchange is one command and the reply it must get: the Str of a status or
// bulk reply, the decimal of an integer, or "null".
type exchange struct {
	cmd  []string
	want string
}

func speak(t *testing.T, cl *kvstore.Client, when string, session []exchange) {
	t.Helper()
	for _, x := range session {
		rep, err := cl.Do(x.cmd...)
		got := rep.Str
		switch {
		case rep.Null:
			got = "null"
		case rep.Kind == ':':
			got = strconv.FormatInt(rep.Int, 10)
		}
		if err != nil || got != x.want {
			t.Errorf("%s: %v = %q, %v; want %q", when, x.cmd, got, err, x.want)
		}
	}
}

// TestServeStopRecover drives the binary's whole life: boot durable, speak
// every kept data command and PING over a real socket, get an error for a
// retired one, stop, boot again on the same directory and read the state
// back.
func TestServeStopRecover(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-dir", dir, "-log", "warn"}
	addr, stop := boot(t, args...)
	cl, err := kvstore.Dial(addr)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	speak(t, cl, "first life", []exchange{
		{[]string{"PING"}, "PONG"},
		{[]string{"SET", "s", "v"}, "OK"},
		{[]string{"SET", "gone", "x"}, "OK"},
		{[]string{"GET", "s"}, "v"},
		{[]string{"DEL", "gone"}, "1"},
		{[]string{"HSET", "h", "kept", "hv"}, "1"},
		{[]string{"HSET", "h", "dropped", "x"}, "1"},
		{[]string{"HGET", "h", "kept"}, "hv"},
		{[]string{"HDEL", "h", "dropped"}, "1"},
		{[]string{"RPUSH", "l", "a", "b", "c"}, "3"},
		{[]string{"LPOP", "l"}, "a"},
		{[]string{"LLEN", "l"}, "2"},
	})
	if rep, err := cl.Do("HGETALL", "h"); err != nil || len(rep.Array) != 2 ||
		rep.Array[0].Str != "kept" || rep.Array[1].Str != "hv" {
		t.Errorf("HGETALL h = %+v, %v", rep, err)
	}
	// A retired command, spelled the way a hand-typed client would (names
	// are case-insensitive on the wire).
	if rep, err := cl.Do("setex", "k", "100", "v"); err == nil || !strings.HasPrefix(rep.Str, "ERR unknown command") {
		t.Errorf("setex = %+v, %v; want -ERR unknown command", rep, err)
	}
	cl.Close()
	if code, out := stop(); code != 0 || !strings.Contains(out, "terokv shutting down") {
		t.Fatalf("first life: exit %d\n%s", code, out)
	}

	addr, stop = boot(t, args...)
	cl, err = kvstore.Dial(addr)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer cl.Close()
	speak(t, cl, "after restart", []exchange{
		{[]string{"GET", "s"}, "v"},
		{[]string{"GET", "gone"}, "null"},
		{[]string{"HGET", "h", "kept"}, "hv"},
		{[]string{"HGET", "h", "dropped"}, "null"},
		{[]string{"LLEN", "l"}, "2"},
		{[]string{"LPOP", "l"}, "b"},
		{[]string{"GET", "k"}, "null"},
	})
	if code, out := stop(); code != 0 || !strings.Contains(out, "3 keys recovered") {
		t.Fatalf("second life: exit %d, want 0 and 3 keys recovered\n%s", code, out)
	}
}

// TestUnknownFlagExitsTwo: an unknown flag, and -fsync (a durable store
// fsyncs every write; there is no policy to pick), are usage errors.
func TestUnknownFlagExitsTwo(t *testing.T) {
	for _, name := range []string{"ttl", "fsync"} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-" + name}, &stdout, &stderr); code != 2 {
			t.Errorf("-%s: exit %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr lacks %q:\n%s", name, want, &stderr)
		}
	}
}

// TestFlagSurfaceBounded keeps the flag count from silently regrowing.
func TestFlagSurfaceBounded(t *testing.T) {
	fs := flag.NewFlagSet("terokv", flag.ContinueOnError)
	new(options).register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > maxFlags {
		t.Errorf("terokv declares %d flags, want at most %d", n, maxFlags)
	}
}
