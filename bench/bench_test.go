package main

import (
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"tero/internal/obs"
	"tero/internal/worldsim"
)

func TestMain(m *testing.M) {
	obs.SetLogLevel(obs.LevelError)
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 3, 3, 4, 100], n=4) == [3.0, 3.0, 52.0]
	if got, want := quartileSpread([]float64{3, 3, 3, 4, 100}), 49.0/3; !near(got, want) {
		t.Errorf("quartileSpread with an outlier = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("one sample has no spread, got %v", got)
	}
}

// A hand-built trace: the root spans 0-100; a download tick 10-60 holds an
// HTTP exchange 20-50 whose handler (another goroutine) ran 25-55, five past
// its parent's end; an extraction 60-90 holds two engine calls.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 0, Parent: -1, Name: "bench.pass", Start: 0, End: 100},
		{Trace: 1, ID: 1, Parent: 0, Name: "download.tick", Start: 10, End: 60},
		{Trace: 1, ID: 2, Parent: 1, Name: "nethttp.cdn", Start: 20, End: 50},
		{Trace: 1, ID: 3, Parent: 2, Name: "replaycdn.handle", Start: 25, End: 55},
		{Trace: 1, ID: 4, Parent: 0, Name: "imageproc.extract", Start: 60, End: 90},
		{Trace: 1, ID: 5, Parent: 4, Name: "ocr.tessera", Start: 62, End: 70},
		{Trace: 1, ID: 6, Parent: 4, Name: "ocr.easyscan", Start: 70, End: 85},
		{Trace: 2, ID: 7, Parent: -1, Name: "bench.pass", Start: 200, End: 900}, // another pass: ignored
	}
	s := summarizeSpans(spans, 1)
	if s.wallNs != 100 || s.spans != 7 {
		t.Fatalf("wall %d over %d spans, want 100 over 7", s.wallNs, s.spans)
	}
	wantSelf := map[string]int64{
		"bench":     100 - 50 - 30, // minus the tick and the extraction
		"download":  50 - 30,       // minus the exchange
		"nethttp":   30 - 25,       // minus the part of the handler inside it (25-50)
		"replaycdn": 30,            // a leaf keeps its whole duration
		"imageproc": 30 - 8 - 15,
		"ocr":       8 + 15,
	}
	var total int64
	for layer, want := range wantSelf {
		if got := s.selfNs[layer]; got != want {
			t.Errorf("self time of %s = %d, want %d", layer, got, want)
		}
		total += s.selfNs[layer]
	}
	// Self times add up to the wall time, plus what the late handler
	// spent outside its parent.
	if total != 100+5 {
		t.Errorf("self times sum to %d, want 105", total)
	}
	if got := s.busyS("ocr."); !near(got, 23e-9) {
		t.Errorf("busy(ocr.) = %v, want 23ns", got)
	}
	if got := s.calls("ocr."); got != 2 {
		t.Errorf("calls(ocr.) = %d, want 2", got)
	}
	if got, want := s.residual(), 0.2; !near(got, want) {
		t.Errorf("residual = %v, want %v", got, want)
	}
}

func TestSpanBookkeeping(t *testing.T) {
	var off *tracer
	if id := off.start("x.y"); id != -1 {
		t.Fatalf("a nil tracer must hand out -1, got %d", id)
	}
	off.end(-1) // and take it back without complaint

	tr := newTracer()
	tr.nextTrace()
	root := tr.start("bench.pass")
	a := tr.start("download.tick")
	b := tr.start("nethttp.cdn")
	parent, at := tr.openTop()
	if parent != b {
		t.Fatalf("a handler arriving now belongs to span %d, got %d", b, parent)
	}
	tr.record("replaycdn.handle", parent, at)
	// A body closed by a defer ends after its sibling started.
	c := tr.start("kvstore.rpush")
	tr.end(b)
	if top, _ := tr.openTop(); top != c {
		t.Fatalf("ending a buried span must leave %d on top, got %d", c, top)
	}
	tr.end(c)
	tr.end(a)
	d := tr.start("pipeline.process")
	tr.end(d)
	tr.end(root)
	if top, _ := tr.openTop(); top != -1 {
		t.Fatalf("all spans closed, yet %d is open", top)
	}
	want := map[string]int{"bench.pass": -1, "download.tick": root, "nethttp.cdn": a,
		"replaycdn.handle": b, "kvstore.rpush": b, "pipeline.process": root}
	for _, sp := range tr.spans {
		if p, ok := want[sp.Name]; !ok || p != sp.Parent {
			t.Errorf("span %s has parent %d, want %d", sp.Name, sp.Parent, p)
		}
		if sp.End < sp.Start || sp.Trace != 1 {
			t.Errorf("span %s: [%d, %d] in trace %d", sp.Name, sp.Start, sp.End, sp.Trace)
		}
	}
	if s := tr.summarize(1); s.spans != len(want) {
		t.Errorf("summary covers %d spans, want %d", s.spans, len(want))
	}
}

// Record a small world once, then replay it: every pass — concurrent,
// serial, traced through the split path, and the batch drain of the corpus —
// must reproduce the reference pass exactly and never run off the tape.
func TestRecordReplayDeterminism(t *testing.T) {
	fx, err := record(worldsim.New(worldConfig(3, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if fx.tape.count == 0 || len(fx.corpus) == 0 {
		t.Fatalf("recorded %d responses and %d thumbnails", fx.tape.count, len(fx.corpus))
	}
	cdn, err := startReplayCDN(fx.tape)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := startFront()
	if err != nil {
		t.Fatal(err)
	}
	env := &replayEnv{fx: fx, cdn: cdn, transport: replayTransport(cdn.addr()), front: fr}
	defer env.close()

	tr := newTracer()
	for _, c := range []struct {
		name        string
		concurrency int
		tr          *tracer
	}{{"concurrent", 0, nil}, {"eight workers", 8, nil}, {"serial", 1, nil}, {"traced", 1, tr}} {
		ps := replayPass(env, c.concurrency, c.tr)
		if len(ps.failures) > 0 {
			t.Errorf("%s replay: %v", c.name, ps.failures)
		}
		if ps.thumbs != fx.ref.Processed {
			t.Errorf("%s replay took in %d thumbnails, the reference %d", c.name, ps.thumbs, fx.ref.Processed)
		}
	}
	if n := cdn.exhausted.Load(); n != 0 {
		t.Errorf("%d requests ran past the end of the tape", n)
	}
	s := tr.summarize(tr.trace)
	// Every exchange with the platform has its handler span; the confirming
	// GETs go to the serving front end instead.
	exchanges := s.calls("nethttp.") - s.calls("nethttp.confirm")
	if n := s.calls("replaycdn.handle"); n == 0 || n != exchanges {
		t.Errorf("traced pass saw %d handler spans for %d exchanges", n, exchanges)
	}
	if r := s.residual(); r < 0 || r > 0.10 {
		t.Errorf("traced pass leaves %.3f of its wall time unattributed", r)
	}

	for _, c := range []struct {
		name        string
		concurrency int
		tr          *tracer
	}{{"plain", 0, nil}, {"traced", 1, tr}} {
		if ps := extractPass(fx, c.concurrency, c.tr); len(ps.failures) > 0 {
			t.Errorf("%s batch drain: %v", c.name, ps.failures)
		}
	}

	// A request the reference pass never made is a failed operation.
	cdn.rewind()
	resp, err := fr.client.Get("http://" + cdn.addr() + "/thumb/nobody.pgm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 410 || cdn.exhausted.Load() != 1 {
		t.Errorf("unknown key answered %d with %d exhausted, want 410 and 1", resp.StatusCode, cdn.exhausted.Load())
	}
}

// Readers against the synthetic index: every reply checks out, static or
// under a writer, and a traced reader's handler spans hang off its requests.
func TestServeTraffic(t *testing.T) {
	env, err := startServeEnv(2)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	for _, mixed := range []bool{false, true} {
		d := 300 * time.Millisecond
		if mixed {
			d = publishEvery + 600*time.Millisecond // long enough for one publish
		}
		readers, w := traffic(env, 2, 2, d, mixed, nil)
		for _, rd := range readers {
			if rd.nfail > 0 || rd.requests == 0 || rd.checked == 0 || rd.conditional == 0 {
				t.Errorf("mixed=%v: %d requests, %d checked, %d conditional, failures %v",
					mixed, rd.requests, rd.checked, rd.conditional, rd.failures)
			}
			if !mixed && rd.notModified != rd.conditional {
				t.Errorf("static index: %d of %d conditional requests got 304", rd.notModified, rd.conditional)
			}
		}
		if mixed && len(w.publishMs) == 0 {
			t.Error("the writer never published")
		}
		if len(windowRates(readers, d)) != int(d/rateWindow) {
			t.Errorf("mixed=%v: %d rate windows over %s", mixed, len(windowRates(readers, d)), d)
		}
	}

	tr := newTracer()
	tr.nextTrace()
	env.tr.Store(tr)
	root := tr.start("bench.pass")
	readers, _ := traffic(env, 3, 1, 100*time.Millisecond, false, tr)
	tr.end(root)
	env.tr.Store(nil)
	s := tr.summarize(tr.trace)
	if n := s.calls("serve.handler"); n == 0 || n != readers[0].requests || n != s.calls("nethttp.query") {
		t.Errorf("%d handler spans, %d query spans, %d requests", n, s.calls("nethttp.query"), readers[0].requests)
	}
	for _, sp := range tr.spans {
		if sp.Name == "serve.handler" && tr.spans[sp.Parent].Name != "nethttp.query" {
			t.Fatalf("handler span hangs off %s", tr.spans[sp.Parent].Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"slower within the bound", lower, steady, shift(1.05), "ok"},
		{"slower past the bound", lower, steady, shift(1.2), "regressed"},
		{"faster", lower, steady, shift(0.5), "ok"},
		{"throughput down past the bound", higher, steady, shift(0.8), "regressed"},
		{"throughput up", higher, steady, shift(1.5), "ok"},
		{"too noisy to tell", lower, noisy, shift(1.2), "unresolved"},
		{"noisy but level", lower, noisy, noisy, "unresolved"},
	} {
		if got, _ := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json must stay inside the limits the driver enforces, and name
// only workloads the harness can run.
func TestManifestWithinContract(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if workloadFunc(w.Name) == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, s := range m.EndToEnd {
		use(s.Name)
		if !unit.MatchString(s.Unit) || s.Bound <= 0 || s.Bound > 0.25 || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("end-to-end metric %+v", s)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, s := range m.PerLayer {
		use(s.Name)
		if !unit.MatchString(s.Unit) || s.Bound != 0 || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("per-layer metric %+v", s)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}
