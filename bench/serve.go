package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tero/internal/core"
	"tero/internal/geo"
	"tero/internal/serve"
	"tero/internal/stats"
)

// The synthetic index the serve workloads read: big enough that the Zipf
// tail misses every CPU cache, small enough to build in half a second.
const (
	synthLocations = 2000
	synthGames     = 4
	synthStreamers = 2 // per {location, game}
	synthPoints    = 40

	zipfS = 1.1

	// The request mix, in percent.
	mixJSON    = 85
	mix304     = 10
	mixCompare = 5

	checkEvery = 64 // 1 response in checkEvery is checked in full

	// serve_mixed's writer: every publishEvery, one new streamer for each of
	// publishGroups groups (1% of the index), then a full Build and Swap.
	publishEvery  = 400 * time.Millisecond
	publishGroups = 80

	// Throughput is the median over windows of this length, so a stall in
	// one of them does not move it. One publish period, so that under
	// serve_mixed every window holds exactly one rebuild.
	rateWindow = publishEvery

	segments = 4
)

// group is one {location, game} of the synthetic index with its requests
// rendered ahead of time, so the readers' own cost per request stays small
// next to the server's.
type group struct {
	loc     geo.Location
	game    string
	latency *url.URL
	pair    string      // "<location key>::<game>", query-escaped
	cond    http.Header // If-None-Match with the entry's ETag at set-up
}

// serveEnv is the system under test for the serve workloads.
type serveEnv struct {
	builder *serve.Builder
	ix      *serve.Index
	server  *serve.Server
	srv     *http.Server
	host    string
	groups  []group
	rank    []int // Zipf rank -> group, shuffled by the seed
	t0      time.Time

	tr atomic.Pointer[tracer] // set while a traced reader runs
}

var noHeader = http.Header{}

func synthStream(rng *rand.Rand, streamer string, g *group, t0 time.Time) []core.Stream {
	base := 15 + rng.Float64()*120
	pts := make([]core.Point, synthPoints)
	for i := range pts {
		pts[i] = core.Point{T: t0.Add(time.Duration(i) * 5 * time.Minute), Ms: base + rng.NormFloat64()*2}
	}
	return []core.Stream{{Streamer: streamer, Game: g.game, Location: g.loc, Points: pts}}
}

func startServeEnv(seed int64) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &serveEnv{
		builder: serve.NewBuilder(coreParams),
		ix:      serve.NewIndex(0),
		t0:      time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC),
	}
	e.groups = make([]group, 0, synthLocations*synthGames)
	for l := 0; l < synthLocations; l++ {
		loc := geo.Location{City: fmt.Sprintf("City%04d", l), Region: fmt.Sprintf("Region%02d", l%50),
			Country: fmt.Sprintf("Country%d", l%10)}
		for g := 0; g < synthGames; g++ {
			e.groups = append(e.groups, group{loc: loc, game: fmt.Sprintf("Game%d", g)})
		}
	}
	for i := range e.groups {
		g := &e.groups[i]
		for s := 0; s < synthStreamers; s++ {
			e.builder.Add(core.Analyze(synthStream(rng, fmt.Sprintf("s-%d-%d", i, s), g, e.t0), coreParams))
		}
	}
	if n := e.ix.Swap(e.builder.Build()); n != len(e.groups) {
		return nil, fmt.Errorf("synthetic index has %d entries, want %d", n, len(e.groups))
	}
	e.server = serve.NewServer(e.ix)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.host = ln.Addr().String()
	e.srv = &http.Server{Handler: e}
	go e.srv.Serve(ln) //nolint:errcheck — returns ErrServerClosed on close

	for i := range e.groups {
		g := &e.groups[i]
		v := url.Values{}
		v.Set("location", g.loc.Key())
		v.Set("game", g.game)
		g.latency = &url.URL{Scheme: "http", Host: e.host, Path: "/v1/latency", RawQuery: v.Encode()}
		g.pair = url.QueryEscape(g.loc.Key() + "::" + g.game)
		entry, ok := e.ix.Get(serve.EntryKey(g.loc, g.game))
		if !ok {
			return nil, fmt.Errorf("synthetic index lacks {%s, %s}", g.loc.Key(), g.game)
		}
		g.cond = http.Header{"If-None-Match": {entry.ETag()}}
	}
	e.rank = rng.Perm(len(e.groups))
	return e, nil
}

// ServeHTTP passes straight through to the serve layer; while a traced
// reader runs it also times the handler as a child of the reader's request.
func (e *serveEnv) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := e.tr.Load()
	if tr == nil {
		e.server.ServeHTTP(w, r)
		return
	}
	parent, start := tr.openTop()
	e.server.ServeHTTP(w, r)
	tr.record("serve.handler", parent, start)
}

func (e *serveEnv) close() { e.srv.Close() }

func (e *serveEnv) compareURL(a, b *group) *url.URL {
	return &url.URL{Scheme: "http", Host: e.host, Path: "/v1/compare", RawQuery: "a=" + a.pair + "&b=" + b.pair}
}

// memWriter is a reusable in-process ResponseWriter.
type memWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *memWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.code = http.StatusOK
	w.buf.Reset()
}

// reader is one closed-loop client: it sends its next request only when the
// previous reply has been read in full.
type reader struct {
	env    *serveEnv
	client *http.Client
	rng    *rand.Rand
	zipf   *rand.Zipf
	static bool // the index never changes: replies must equal the in-process handler's byte for byte
	tr     *tracer

	latNs       []uint32
	perWindow   []int // requests completed in each rateWindow since the start
	requests    int
	bodyBytes   int64
	notModified int
	conditional int
	checked     int
	failures    []string
	nfail       int
	buf         bytes.Buffer
	mem         memWriter
}

func newReader(env *serveEnv, client *http.Client, seed int64, id int, static bool) *reader {
	rng := rand.New(rand.NewSource(seed<<8 + int64(id) + 1))
	return &reader{
		env: env, client: client, rng: rng, static: static,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(len(env.groups)-1)),
		latNs: make([]uint32, 0, 1<<20),
		mem:   memWriter{hdr: http.Header{}},
	}
}

func (rd *reader) fail(format string, args ...any) {
	rd.nfail++
	if len(rd.failures) < 4 {
		rd.failures = append(rd.failures, fmt.Sprintf(format, args...))
	}
}

func (rd *reader) pick() *group { return &rd.env.groups[rd.env.rank[rd.zipf.Uint64()]] }

const (
	kindJSON = iota
	kind304
	kindCompare
)

// next draws one request from the mix.
func (rd *reader) next() (kind int, g, other *group, req *http.Request) {
	g = rd.pick()
	req = &http.Request{Method: http.MethodGet, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: noHeader, Host: rd.env.host}
	switch n := rd.rng.Intn(100); {
	case n < mixJSON:
		kind, req.URL = kindJSON, g.latency
	case n < mixJSON+mix304:
		kind, req.URL, req.Header = kind304, g.latency, g.cond
	default:
		// Two groups of one game: the popular pick against another place.
		other = rd.pick()
		for other.game != g.game || other == g {
			other = rd.pick()
		}
		kind, req.URL = kindCompare, rd.env.compareURL(g, other)
	}
	return kind, g, other, req
}

// run issues requests until the duration is up.
func (rd *reader) run(d time.Duration) {
	start := time.Now()
	for {
		kind, g, other, req := rd.next()
		id := rd.tr.start("nethttp.query")
		t0 := time.Now()
		resp, err := rd.client.Do(req)
		if err != nil {
			rd.tr.end(id)
			rd.requests++
			rd.fail("%s: %v", req.URL, err)
			if time.Since(start) >= d {
				return
			}
			continue
		}
		rd.buf.Reset()
		_, err = rd.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		now := time.Now()
		rd.tr.end(id)
		rd.latNs = append(rd.latNs, uint32(now.Sub(t0)))
		w := int(now.Sub(start) / rateWindow)
		for len(rd.perWindow) <= w {
			rd.perWindow = append(rd.perWindow, 0)
		}
		rd.perWindow[w]++
		rd.requests++
		rd.bodyBytes += int64(rd.buf.Len())
		if err != nil {
			rd.fail("%s: reading body: %v", req.URL, err)
		} else {
			rd.verify(kind, g, other, req, resp)
		}
		if now.Sub(start) >= d {
			return
		}
	}
}

func (rd *reader) verify(kind int, g, other *group, req *http.Request, resp *http.Response) {
	want := http.StatusOK
	if kind == kind304 {
		rd.conditional++
		if resp.StatusCode == http.StatusNotModified {
			rd.notModified++
		}
		// Once a publish has touched the group its ETag has moved on and
		// the full body is the right answer.
		if rd.static || resp.StatusCode == http.StatusNotModified {
			want = http.StatusNotModified
		}
	}
	if resp.StatusCode != want {
		rd.fail("%s: status %d, want %d", req.URL, resp.StatusCode, want)
		return
	}
	if rd.requests%checkEvery != 0 {
		return
	}
	rd.checked++
	if rd.static {
		rd.mem.reset()
		rd.env.server.ServeHTTP(&rd.mem, req)
		if rd.mem.code != resp.StatusCode || !bytes.Equal(rd.mem.buf.Bytes(), rd.buf.Bytes()) {
			rd.fail("%s: reply over TCP differs from the handler's (%d, %d bytes vs %d, %d bytes)",
				req.URL, resp.StatusCode, rd.buf.Len(), rd.mem.code, rd.mem.buf.Len())
		}
		return
	}
	if resp.StatusCode == http.StatusNotModified {
		return
	}
	if kind == kindCompare {
		var c serve.CompareResponse
		if err := json.Unmarshal(rd.buf.Bytes(), &c); err != nil {
			rd.fail("%s: %v", req.URL, err)
		} else if c.A.Location.Key != g.loc.Key() || c.B.Location.Key != other.loc.Key() ||
			c.A.Game != g.game || c.B.Game != g.game {
			rd.fail("%s: answered for {%s, %s} vs {%s, %s}", req.URL, c.A.Location.Key, c.A.Game, c.B.Location.Key, c.B.Game)
		}
		return
	}
	var l serve.LatencyResponse
	if err := json.Unmarshal(rd.buf.Bytes(), &l); err != nil {
		rd.fail("%s: %v", req.URL, err)
	} else if l.Location.Key != g.loc.Key() || l.Game != g.game || l.N == 0 {
		rd.fail("%s: answered for {%s, %s} with n=%d", req.URL, l.Location.Key, l.Game, l.N)
	}
}

// writer is serve_mixed's publisher: on a fixed schedule it analyses one new
// streamer for each of the next publishGroups groups, adds them, rebuilds
// and swaps. Publish latency runs from the moment the publish was due.
type writer struct {
	env  *serveEnv
	rng  *rand.Rand
	stop chan struct{}
	done chan struct{}

	publishMs, analyzeNs, buildMs, swapUs []float64
}

func (w *writer) run() {
	defer close(w.done)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k+1) * publishEvery)
		select {
		case <-w.stop:
			return
		case <-time.After(time.Until(due)):
		}
		t0 := time.Now()
		for j := 0; j < publishGroups; j++ {
			gi := (k*publishGroups + j) % len(w.env.groups)
			g := &w.env.groups[gi]
			w.env.builder.Add(core.Analyze(synthStream(w.rng, fmt.Sprintf("w-%d-%d", k, j), g, w.env.t0), coreParams))
		}
		t1 := time.Now()
		snap := w.env.builder.Build()
		t2 := time.Now()
		w.env.ix.Swap(snap)
		t3 := time.Now()
		w.analyzeNs = append(w.analyzeNs, float64(t1.Sub(t0).Nanoseconds()))
		w.buildMs = append(w.buildMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
		w.swapUs = append(w.swapUs, float64(t3.Sub(t2).Nanoseconds())/1e3)
		w.publishMs = append(w.publishMs, float64(t3.Sub(due).Nanoseconds())/1e6)
	}
}

// traffic runs `clients` closed-loop readers for d, beside the writer when
// the workload is serve_mixed, and returns them once all have stopped.
func traffic(env *serveEnv, seed int64, clients int, d time.Duration, mixed bool, tr *tracer) ([]*reader, *writer) {
	transport := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	readers := make([]*reader, clients)
	for i := range readers {
		readers[i] = newReader(env, client, seed, i, !mixed)
		readers[i].tr = tr
	}
	var w *writer
	if mixed {
		w = &writer{env: env, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
			stop: make(chan struct{}), done: make(chan struct{})}
		go w.run()
	}
	var wg sync.WaitGroup
	for _, rd := range readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			rd.run(d)
		}(rd)
	}
	wg.Wait()
	if w != nil {
		close(w.stop)
		<-w.done
	}
	return readers, w
}

// windowRates is the request rate in each full window of one segment, all
// its readers together.
func windowRates(readers []*reader, d time.Duration) []float64 {
	var rates []float64
	for w := 0; w < int(d/rateWindow); w++ {
		n := 0
		for _, rd := range readers {
			if w < len(rd.perWindow) {
				n += rd.perWindow[w]
			}
		}
		rates = append(rates, float64(n)/rateWindow.Seconds())
	}
	return rates
}

func runServe(cfg runConfig) (*result, error) {
	res := newResult()
	mixed := cfg.workload == "serve_mixed"
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}

	var env *serveEnv
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.close()
		}
		env = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = startServeEnv(cfg.seed); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer env.close()

	tally := func(readers []*reader) (lat []float64, requests int) {
		for _, rd := range readers {
			requests += rd.requests
			res.attempted += rd.requests
			res.failed += rd.nfail
			res.problems = append(res.problems, rd.failures...)
			for _, ns := range rd.latNs {
				lat = append(lat, float64(ns)/1e3)
			}
		}
		return lat, requests
	}

	warm, _ := traffic(env, cfg.seed+1000, clients, time.Second, false, nil) // connections, the heap's size
	tally(warm)
	runtime.GC()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return res, tracedServe(cfg, res, env, mixed, d, tally)
	}

	// Which goroutine shares a core with which is settled when a connection
	// is set up and then sticks, and it moves latency by several percent. A
	// run is therefore several segments, each on fresh connections, pooled.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var readers []*reader
	var rates, publishMs []float64
	for seg := 0; seg < segments; seg++ {
		rs, w := traffic(env, cfg.seed+int64(seg)<<32, clients, d/segments, mixed, nil)
		readers = append(readers, rs...)
		rates = append(rates, windowRates(rs, d/segments)...)
		if w != nil {
			publishMs = append(publishMs, w.publishMs...)
		}
	}
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	lat, requests := tally(readers)
	if requests == 0 || len(lat) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	if mixed && len(publishMs) == 0 {
		res.fail("the writer never published")
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(env)

	res.set("ops_per_s", stats.Median(rates), requests)
	res.set("op_p50_us", stats.Median(lat), len(lat))
	res.set("op_tail_us", stats.Percentile(lat, 99), len(lat))
	res.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(requests)/1024, requests)
	res.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20), 1)
	logf("%d clients, %d requests in %.2fs", clients, requests, elapsed)
	if mixed {
		logf("writer: %d publishes, p50 %.1f ms from due", len(publishMs), stats.Median(publishMs))
	}
	return res, nil
}

// tracedServe splits the run in two: one reader untraced, then the same
// reader traced (its requests as spans, the handler's time as their child).
// One reader, so the spans nest; the writer, when there is one, keeps its
// own clock in both halves.
func tracedServe(cfg runConfig, res *result, env *serveEnv, mixed bool, d time.Duration,
	tally func([]*reader) ([]float64, int)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plainReaders, w1 := traffic(env, cfg.seed, 1, d/2, mixed, nil)
	plainLat, plainN := tally(plainReaders)

	tr := newTracer()
	tr.nextTrace()
	env.tr.Store(tr)
	root := tr.start("bench.pass")
	tracedReaders, w2 := traffic(env, cfg.seed+1, 1, d/2, mixed, tr)
	tr.end(root)
	env.tr.Store(nil)
	_, tracedN := tally(tracedReaders)
	runtime.ReadMemStats(&m1)
	if plainN == 0 || tracedN == 0 {
		return fmt.Errorf("no request completed")
	}

	s := tr.summarize(tr.trace)
	res.set("trace.overhead_ratio", float64(plainN)/float64(tracedN), plainN+tracedN)
	res.set("trace.residual_ratio", s.residual(), 1)
	res.set("trace.spans", float64(s.spans), 1)
	checkResidual(res)
	res.set("serve.handler_busy_s", s.busyS("serve.handler"), s.calls("serve.handler"))
	res.set("nethttp.self_s", s.selfS("nethttp"), s.calls("nethttp.query"))
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
	res.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 1)
	res.set("runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), 1)

	rd := plainReaders[0]
	res.set("serve.query_p99_us", stats.Percentile(plainLat, 99), len(plainLat))
	res.set("serve.query_p999_us", stats.Percentile(plainLat, 99.9), len(plainLat))
	res.set("serve.body_bytes_avg", float64(rd.bodyBytes)/float64(rd.requests), rd.requests)
	if rd.conditional > 0 {
		res.set("serve.not_modified_ratio", float64(rd.notModified)/float64(rd.conditional), rd.conditional)
	}
	if mixed {
		var pub, ana, build, swap []float64
		for _, w := range []*writer{w1, w2} {
			pub = append(pub, w.publishMs...)
			ana = append(ana, w.analyzeNs...)
			build = append(build, w.buildMs...)
			swap = append(swap, w.swapUs...)
		}
		if len(pub) == 0 {
			res.fail("the writer never published")
		}
		res.set("serve.publish_p50_ms", stats.Median(pub), len(pub))
		res.set("core.analyze_us_per_group", stats.Median(ana)/1e3/publishGroups, len(ana))
		res.set("serve.build_ms_p50", stats.Median(build), len(build))
		res.set("serve.swap_us_p50", stats.Median(swap), len(swap))
	}
	res.tracer = tr

	probeHandlers(res, env, stats.Median(plainLat))
	return nil
}

// probeHandlers times the serve layer alone — ServeHTTP in-process with a
// reused writer, one figure per request kind — and the bare net/http round
// trip (/healthz on a kept-alive connection). Their ratio to the measured
// query time is the in-process vs TCP gap.
func probeHandlers(res *result, env *serveEnv, queryP50Us float64) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(env.groups)-1))
	pick := func() *group { return &env.groups[env.rank[zipf.Uint64()]] }
	mk := func(u *url.URL, h http.Header) *http.Request {
		return &http.Request{Method: http.MethodGet, URL: u, Header: h, Host: env.host,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	}
	binary := http.Header{"Accept": {serve.ContentTypeBinary}}
	kinds := []struct {
		name string
		req  func() *http.Request
	}{
		{"serve.handler_json_ns", func() *http.Request { return mk(pick().latency, noHeader) }},
		{"serve.handler_binary_ns", func() *http.Request { return mk(pick().latency, binary) }},
		{"serve.handler_304_ns", func() *http.Request { g := pick(); return mk(g.latency, g.cond) }},
		{"serve.handler_compare_ns", func() *http.Request {
			a, b := pick(), pick()
			for b.game != a.game || b == a {
				b = pick()
			}
			return mk(env.compareURL(a, b), noHeader)
		}},
	}
	const batches, perBatch = 5, 4000
	ns := map[string]float64{}
	w := &memWriter{hdr: http.Header{}}
	for _, k := range kinds {
		var per []float64
		for b := 0; b < batches; b++ {
			reqs := make([]*http.Request, perBatch)
			for i := range reqs {
				reqs[i] = k.req()
			}
			t0 := time.Now()
			for _, r := range reqs {
				w.reset()
				env.server.ServeHTTP(w, r)
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/perBatch)
		}
		ns[k.name] = stats.Median(per)
		res.set(k.name, ns[k.name], batches*perBatch)
	}

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	health := mk(&url.URL{Scheme: "http", Host: env.host, Path: "/healthz"}, noHeader)
	var floor []float64
	for i := 0; i < 5000; i++ {
		t0 := time.Now()
		resp, err := client.Do(health)
		if err != nil {
			res.fail(fmt.Sprintf("/healthz: %v", err))
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — two bytes from loopback
		resp.Body.Close()
		floor = append(floor, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.set("nethttp.floor_p50_us", stats.Median(floor), len(floor))
	handler := (mixJSON*ns["serve.handler_json_ns"] + mix304*ns["serve.handler_304_ns"] +
		mixCompare*ns["serve.handler_compare_ns"]) / 100
	if handler > 0 {
		res.set("serve.tcp_over_handler_ratio", queryP50Us*1e3/handler, 1)
	}
}
