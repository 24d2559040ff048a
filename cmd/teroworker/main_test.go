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
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 5

// TestJoinsAndLeavesWithTheRun drives the binary's whole life against an
// in-test store: it registers under the default <hostname>-<pid> ID once the
// coordinator has announced the platform, and exits 0 when the run ends.
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
	coord.Announce("http://platform.invalid")
	if err := coord.WaitWorkers(1, 10*time.Second); err != nil {
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

// TestRetiredFlagsRejected pins the collapse: a worker always window-stamps
// and runs one downloader, and asking otherwise is a usage error, not a
// silently accepted no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, name := range []string{"window-stamp", "downloaders"} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-" + name}, &stdout, &stderr); code != 2 {
			t.Errorf("-%s: exit %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr lacks %q:\n%s", name, want, &stderr)
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
