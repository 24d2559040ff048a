package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 13

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

// TestServesUntilCancelled drives the binary's whole life in-process: a tiny
// world publishes, the sample query answers 200 with an ETag, /readyz is 200
// with the SLO report, and cancelling the context — what SIGTERM does under
// main — shuts it down with exit 0.
func TestServesUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	var code int
	done := make(chan struct{})
	go func() {
		defer close(done)
		code = run(ctx, []string{"-streamers", "12", "-days", "1", "-addr", "127.0.0.1:0", "-log", "warn"},
			&stdout, &stderr)
	}()
	t.Cleanup(func() { cancel(); <-done })

	deadline := time.Now().Add(2 * time.Minute)
	for !strings.Contains(stdout.String(), "serving (Ctrl-C to stop)") {
		select {
		case <-done:
			t.Fatalf("exit %d before serving\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("never served\nstdout:\n%s\nstderr:\n%s", &stdout, &stderr)
		}
	}
	out := stdout.String()
	query := regexp.MustCompile(`(?m)^sample query: (\S+)$`).FindStringSubmatch(out)
	addr := regexp.MustCompile(`(?m)^teroserve listening at (\S+) `).FindStringSubmatch(out)
	if query == nil || addr == nil {
		t.Fatalf("no sample query or address announced:\n%s", out)
	}

	resp, err := http.Get(query[1])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
		t.Errorf("sample query: status %d, ETag %q; want 200 with an ETag", resp.StatusCode, resp.Header.Get("ETag"))
	}
	resp, err = http.Get(addr[1] + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !regexp.MustCompile(`(?m)^slo `).Match(body) {
		t.Errorf("/readyz: status %d, want 200 with slo lines:\n%s", resp.StatusCode, body)
	}

	cancel()
	<-done
	if code != 0 {
		t.Fatalf("exit %d after cancel, want 0\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "shutting down") {
		t.Errorf("no shutdown line:\n%s", &stdout)
	}
}

// TestRetiredFlagsRejected pins the collapse: every flag that belonged to the
// deleted bench drivers, the in-proc replicas, the never-set tuning knobs,
// the streaming index and its spike injector, the binary-representation
// probe, admission control or the self-load-test is a usage error, not a
// silently accepted no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, name := range []string{
		"replicas", "peers", "loadtest-binary", "loadtest-inproc", "loadtest-trace",
		"bench-serve", "bench-ingest", "ingest-duty", "ingest-pace", "ingest-clients",
		"window", "windows", "anomaly-threshold", "min-points",
		"deltas", "spike-game", "spike-ms", "spike-after", "spike-duration",
		"probe-binary",
		"max-inflight", "shed-rate", "shed-burst", "loadtest", "loadtest-requests",
	} {
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
	fs := flag.NewFlagSet("teroserve", flag.ContinueOnError)
	new(options).register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > maxFlags {
		t.Errorf("teroserve declares %d flags, want at most %d", n, maxFlags)
	}
}
