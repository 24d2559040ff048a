package main

import (
	"bytes"
	"flag"
	"regexp"
	"strings"
	"testing"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 19

// TestGatedLoadtestShedsAndSurvives is the check.sh shed smoke as a test: a
// tiny world behind a tight token bucket, load-tested by its own client,
// must shed some requests, hit no transport errors and still exit 0.
func TestGatedLoadtestShedsAndSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("the simulated platform's rate limit makes this ~15 s of wall sleep")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-streamers", "12", "-days", "1", "-addr", "127.0.0.1:0", "-log", "warn",
		"-shed-rate", "1000", "-shed-burst", "50",
		"-loadtest", "8", "-loadtest-requests", "25",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "transport-errors 0") {
		t.Errorf("loadtest report lacks %q:\n%s", "transport-errors 0", out)
	}
	if !regexp.MustCompile(`shed [1-9][0-9]*`).MatchString(out) {
		t.Errorf("gated loadtest shed nothing:\n%s", out)
	}
}

// TestRetiredFlagsRejected pins the collapse: every flag that belonged to the
// deleted bench drivers, the in-proc replicas, the never-set tuning knobs or
// the streaming index and its spike injector is a usage error, not a
// silently accepted no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, name := range []string{
		"replicas", "peers", "loadtest-binary", "loadtest-inproc", "loadtest-trace",
		"bench-serve", "bench-ingest", "ingest-duty", "ingest-pace", "ingest-clients",
		"window", "windows", "anomaly-threshold", "min-points",
		"deltas", "spike-game", "spike-ms", "spike-after", "spike-duration",
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-" + name}, &stdout, &stderr); code != 2 {
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
