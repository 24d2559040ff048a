package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/dist"
	"tero/internal/pipeline"
	"tero/internal/stats"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 15

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
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-streamers", "5", "-days", "1", "-log", "error"}, &stdout, &stderr)
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

// TestDistributedListenFailureExitsOne: a coordinator that cannot listen
// returns 1 through its deferred cleanups.
func TestDistributedListenFailureExitsOne(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-streamers", "5", "-days", "1", "-log", "error",
		"-distributed", "1", "-listen", occupied.Addr().String()}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "serve "+occupied.Addr().String()) {
		t.Fatalf("exit %d, want 1 and a listen error\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}

// TestDistributedRunFailureExitsOne: the fleet's only worker joins and then
// dies, so the run fails mid-tick ("no live workers") and exits 1.
func TestDistributedRunFailureExitsOne(t *testing.T) {
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(context.Background(), []string{"-streamers", "5", "-days", "1", "-log", "error",
			"-distributed", "1", "-listen", "127.0.0.1:0"}, &stdout, &stderr)
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
	addr := awaitLine(`(?m)^coordinator: store at (\S+) `)[1]
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
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-replicas"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "flag provided but not defined: -replicas"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, &stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-distributed") {
		t.Errorf("usage lacks -distributed:\n%s", &stderr)
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

// TestDistributionsBreakTiesByName: the rows come from a map, so rows with
// tied p50s must print in one order (by name) whatever order they arrive in.
func TestDistributionsBreakTiesByName(t *testing.T) {
	tied := stats.Boxplot{P5: 20, P25: 25, P50: 30, P75: 35, P95: 40, N: 12}
	paris, turkey := distRow{"Paris, FR / League of Legends", tied}, distRow{"Istanbul, TR / Dota 2", tied}
	us := distRow{"Dallas, US / Valorant", stats.Boxplot{P50: 20, N: 30}}
	var a, b strings.Builder
	writeDistributions(&a, []distRow{paris, turkey, us})
	writeDistributions(&b, []distRow{turkey, us, paris})
	if a.String() != b.String() || !regexp.MustCompile(`(?s)Dallas.*Istanbul.*Paris`).MatchString(a.String()) {
		t.Fatalf("want one table, by p50 then name:\n%s\n%s", &a, &b)
	}
}

// TestTableIsTheReferenceAnalysis: the table tero prints, read from the
// snapshot it would serve, equals the one the offline reference path renders
// — Analyze, GroupByLocation, Distribution, Boxplot — from the same world
// driven on the same schedule, row for row.
func TestTableIsTheReferenceAnalysis(t *testing.T) {
	o := options{seed: 4, streamers: 40, days: 1}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-seed", "4", "-streamers", "40", "-days", "1", "-log", "error"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	_, got, ok := strings.Cut(stdout.String(), "\n\nlatency distributions")
	if !ok {
		t.Fatalf("no distribution table:\n%s", &stdout)
	}

	cfg := o.worldConfig()
	platform := twitchsim.New(worldsim.New(cfg))
	defer platform.Close()
	p := pipeline.New(platform.URL(), 4)
	if err := pipeline.Drive(platform, p, nil, cfg.Days*24*30, pipeline.TickEvery, nil); err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	var rows []distRow
	for key, as := range core.GroupByLocation(p.Analyze(params)) {
		if d := core.Distribution(as, params); !key.Loc.IsZero() && len(d) >= 12 {
			rows = append(rows, distRow{name: fmt.Sprintf("%s / %s", key.Loc, key.Game), box: stats.NewBoxplot(d)})
		}
	}
	if len(rows) < 2 {
		t.Fatalf("the reference has %d rows; the world is too small to compare", len(rows))
	}
	var want strings.Builder
	writeDistributions(&want, rows)
	if got = "latency distributions" + got; got != want.String() {
		t.Errorf("printed table:\n%s\nreference table:\n%s", got, &want)
	}
}

// TestServesUntilCancelled drives a serving run's whole life in-process: a
// tiny world publishes, the sample query answers 200 with an ETag, /readyz
// is 200 with the SLO report, and cancelling the context — what SIGTERM does
// under main — shuts it down with exit 0.
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
	addr := regexp.MustCompile(`(?m)^tero serving /v1 at (\S+) `).FindStringSubmatch(out)
	if query == nil || addr == nil {
		t.Fatalf("no sample query or address announced:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^latency distributions per \{location, game\}`).MatchString(out) {
		t.Errorf("no distribution table before serving:\n%s", out)
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

// TestCancelledRunShutsDown: a run whose context is done before its first
// tick ends, without -addr as with it and as a coordinator still waiting for
// its fleet, with "shutting down" and exit 0 and prints no table.
func TestCancelledRunShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{nil, {"-addr", "127.0.0.1:0"}, {"-distributed", "1", "-listen", "127.0.0.1:0"}} {
		var stdout, stderr bytes.Buffer
		code := run(ctx, append([]string{"-streamers", "5", "-days", "1", "-log", "error"}, args...), &stdout, &stderr)
		if code != 0 || !strings.HasSuffix(stdout.String(), "\nshutting down\n") ||
			strings.Contains(stdout.String(), "latency distributions") {
			t.Errorf("%v: exit %d, want 0 and a last line \"shutting down\"\nstdout:\n%s\nstderr:\n%s",
				args, code, &stdout, &stderr)
		}
	}
}

// TestRetiredFlagsRejected pins the collapse: every flag that belonged to the
// deleted bench drivers, the in-proc replicas, the never-set tuning knobs,
// the streaming index and its spike injector, the binary-representation
// probe, admission control, the self-load-test or the republish period
// (publishes follow the drain cadence) is a usage error, not a silently
// accepted no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, name := range []string{
		"replicas", "peers", "loadtest-binary", "loadtest-inproc", "loadtest-trace",
		"bench-serve", "bench-ingest", "ingest-duty", "ingest-pace", "ingest-clients",
		"window", "windows", "anomaly-threshold", "min-points",
		"deltas", "spike-game", "spike-ms", "spike-after", "spike-duration",
		"probe-binary",
		"max-inflight", "shed-rate", "shed-burst", "loadtest", "loadtest-requests",
		"refresh",
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
