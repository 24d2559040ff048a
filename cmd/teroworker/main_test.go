package main

import (
	"bytes"
	"context"
	"flag"
	"regexp"
	"strings"
	"testing"
	"time"

	"tero/internal/dist"
	"tero/internal/kvstore"
	"tero/internal/obs/trace"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 4

// TestJoinsAndLeavesWithTheRun drives the binary's whole life against an
// in-test store: it registers under the default <hostname>-<pid> ID, waits
// for a round token, and exits 0 when the run ends.
func TestJoinsAndLeavesWithTheRun(t *testing.T) {
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord := dist.NewCoordinator(nil, st)

	var stdout, stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(context.Background(), []string{"-store", srv.Addr(), "-log", "error"}, &stdout, &stderr)
	}()
	if err := coord.WaitWorkers(context.Background(), 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for id := range st.HGetAll(dist.KeyRoster) {
		if !regexp.MustCompile(`^.+-[0-9]+$`).MatchString(id) {
			t.Errorf("default worker ID %q, want <hostname>-<pid>", id)
		}
	}
	coord.EndRun()
	if code := <-exit; code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !regexp.MustCompile(`(?m)^teroworker \S+ done$`).MatchString(stdout.String()) {
		t.Errorf("no farewell line on stdout:\n%s", &stdout)
	}
	if n := len(st.HGetAll(dist.KeyRoster)); n != 0 {
		t.Errorf("%d workers still on the roster after a clean exit", n)
	}
}

// TestRetiredFlagsRejected pins the collapse: a worker always window-stamps,
// runs one downloader and seeds its trace IDs from its ID, and asking
// otherwise is a usage error, not a silently accepted no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, name := range []string{"window-stamp", "downloaders", "trace-seed"} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-" + name}, &stdout, &stderr); code != 2 {
			t.Errorf("-%s: exit %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr lacks %q:\n%s", name, want, &stderr)
		}
	}
}

// TestTraceIDsDistinctPerWorker: two workers run with -trace draw disjoint
// trace IDs, and neither draws what the coordinator does under the default
// world seed (trace.Enable(1)), so the coordinator's spans, recorded under
// the workers' journey IDs, never merge two journeys into one trace.
func TestTraceIDsDistinctPerWorker(t *testing.T) {
	t.Cleanup(trace.Disable)
	st := kvstore.New()
	st.Set(dist.KeyRound, dist.RoundDone) // each worker leaves as it joins
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 64
	draw := func() map[uint64]bool {
		ids := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			sp := trace.StartTrace("probe")
			ids[sp.Context().TraceID] = true
			sp.End()
		}
		return ids
	}
	worker := func(id string) map[uint64]bool {
		var stdout, stderr bytes.Buffer
		args := []string{"-store", srv.Addr(), "-id", id, "-trace", "-log", "error"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("worker %s: exit %d\n%s", id, code, &stderr)
		}
		return draw()
	}
	w1, w2 := worker("w1"), worker("w2")
	trace.Enable(1)
	coord := draw()
	for _, pair := range []struct {
		name string
		a, b map[uint64]bool
	}{{"w1 and w2", w1, w2}, {"w1 and the coordinator", w1, coord}, {"w2 and the coordinator", w2, coord}} {
		shared := 0
		for id := range pair.a {
			if pair.b[id] {
				shared++
			}
		}
		if shared > 0 {
			t.Errorf("%s share %d of their first %d trace IDs", pair.name, shared, n)
		}
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-addr"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "flag provided but not defined: -addr"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, &stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-store") {
		t.Errorf("usage lacks -store:\n%s", &stderr)
	}
}

// TestFlagSurfaceBounded keeps the flag count from silently regrowing.
func TestFlagSurfaceBounded(t *testing.T) {
	fs := flag.NewFlagSet("teroworker", flag.ContinueOnError)
	new(options).register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > maxFlags {
		t.Errorf("teroworker declares %d flags, want at most %d", n, maxFlags)
	}
}
