package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"tero/internal/core"
	"tero/internal/download"
	"tero/internal/games"
	"tero/internal/imaging"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/stats"
	"tero/internal/worldsim"
)

var coreParams = core.DefaultParams()

// OCR error ceilings against render truth. Over seeds 1-14 this commit
// misses 0.085-0.109 of the legible thumbnails and misreads 0.062-0.082 of
// those it reads (Table 4 of the paper puts the real engines in the same
// neighbourhood); the ceilings sit about four standard deviations above
// that, so they hold on any seed and still catch a change that trades
// accuracy for speed.
const (
	missRatioCeiling  = 0.13
	wrongRatioCeiling = 0.10
)

// decorate puts a pipeline behind the timing decorators of a traced pass.
func decorate(p *pipeline.Pipeline, tr *tracer) *tracedObj {
	p.SetKV(&tracedKV{kv: p.KV, tr: tr})
	obj := &tracedObj{api: p.Objects, tr: tr}
	p.Objects = obj
	for _, d := range p.Downloaders {
		d.Store = obj
	}
	p.Extractor.Engines = traceEngines(p.Extractor.Engines, tr)
	return obj
}

// routeRT names HTTP spans after the platform route, so CDN traffic (the
// download module's) and profile lookups (the location module's) add up
// apart.
type routeRT struct {
	cdn, streams, users, social *tracedRT
	heads, gets                 int // thumbnail HEADs and GETs, for the unchanged ratio
}

func newRouteRT(base http.RoundTripper, tr *tracer) *routeRT {
	mk := func(name string) *tracedRT { return &tracedRT{base: base, tr: tr, name: name} }
	return &routeRT{cdn: mk("nethttp.cdn"), streams: mk("nethttp.streams"),
		users: mk("nethttp.users"), social: mk("nethttp.social")}
}

func (r *routeRT) RoundTrip(req *http.Request) (*http.Response, error) {
	switch p := req.URL.Path; {
	case strings.HasPrefix(p, "/helix/streams"):
		return r.streams.RoundTrip(req)
	case strings.HasPrefix(p, "/helix/users"):
		return r.users.RoundTrip(req)
	case strings.HasPrefix(p, "/twitter/"), strings.HasPrefix(p, "/steam/"):
		return r.social.RoundTrip(req)
	case strings.HasPrefix(p, "/thumb/"):
		// Downloaders poll serially in a traced pass: no lock needed.
		if req.Method == http.MethodHead {
			r.heads++
		} else {
			r.gets++
		}
	}
	return r.cdn.RoundTrip(req)
}

// pass is what one timed pass of an ingest workload measured.
type pass struct {
	wall     time.Duration
	thumbs   int
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
	failures []string
	run      *loopRun // ingest_replay only
	p        *pipeline.Pipeline
	obj      *tracedObj
	rt       *routeRT
}

// timed runs fn between two memory snapshots.
func (ps *pass) timed(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	ps.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
}

// extractPass is one extract_batch pass: a fresh pipeline, the whole corpus
// put into the thumbnail bucket (untimed), then one timed drain and one
// analysis over what it stored.
func extractPass(fx *fixture, concurrency int, tr *tracer) *pass {
	p := newPipeline(fx.base, nil, concurrency)
	for _, t := range fx.corpus {
		p.Objects.Put(download.ThumbBucket, t.key, t.data, t.meta)
	}
	ps := &pass{p: p}
	if tr != nil {
		ps.obj = decorate(p, tr) // only now, so the untimed puts leave no spans
	}
	var analyses []*core.Analysis
	ps.timed(func() {
		if tr == nil {
			ps.thumbs = p.ProcessThumbnails()
			analyses = p.Analyze(coreParams)
			return
		}
		tr.nextTrace()
		root := tr.start("bench.pass")
		run := &loopRun{p: p, tr: tr}
		run.processSplit()
		ps.failures = run.failures
		ps.thumbs = p.Processed
		id := tr.start("pipeline.analyze")
		analyses = p.Analyze(coreParams)
		tr.end(id)
		tr.end(root)
	})
	got := outcome{Processed: p.Processed, Extracted: p.Extracted, Zero: p.Zero, Missed: p.Missed,
		Analyses: len(analyses), DocsSHA: docsDigest(p.Docs)}
	if !got.sameIngest(fx.ref) {
		ps.failures = append(ps.failures, fmt.Sprintf("output differs from the reference pass: got %s, want %s", got, fx.ref))
	}
	if ps.thumbs != len(fx.corpus) {
		ps.failures = append(ps.failures, fmt.Sprintf("drained %d thumbnails of %d", ps.thumbs, len(fx.corpus)))
	}
	return ps
}

// replayEnv is what ingest_replay passes share: the replay CDN, one
// transport that always dials it, and the serving front end.
type replayEnv struct {
	fx        *fixture
	cdn       *replayCDN
	transport *http.Transport
	front     *front
}

func (e *replayEnv) close() {
	e.transport.CloseIdleConnections()
	e.cdn.close()
	e.front.close()
}

// replayPass is one ingest_replay pass: a fresh pipeline driving the
// production loop against the replay CDN over real sockets.
func replayPass(e *replayEnv, concurrency int, tr *tracer) *pass {
	e.cdn.rewind()
	e.cdn.tr.Store(tr)
	exhausted0 := e.cdn.exhausted.Load()
	ps := &pass{}
	var rt http.RoundTripper = e.transport
	if tr != nil {
		ps.rt = newRouteRT(e.transport, tr)
		rt = ps.rt
	}
	p := newPipeline(e.fx.base, rt, concurrency)
	if tr != nil {
		ps.obj = decorate(p, tr)
	}
	run := &loopRun{p: p, builder: serve.NewBuilder(coreParams), front: e.front, start: e.fx.world.Cfg.Start, tr: tr}
	run.builder.Concurrency = concurrency
	ps.p, ps.run = p, run
	ps.timed(func() {
		var root int
		if tr != nil {
			tr.nextTrace()
			root = tr.start("bench.pass")
		}
		run.run()
		tr.end(root)
	})
	e.cdn.tr.Store(nil)
	ps.thumbs = p.Processed
	ps.failures = run.failures
	if n := e.cdn.exhausted.Load() - exhausted0; n > 0 {
		ps.failures = append(ps.failures, fmt.Sprintf("%d requests ran past the end of the tape", n))
	}
	if got := run.outcome(); got != e.fx.ref {
		ps.failures = append(ps.failures, fmt.Sprintf("output differs from the reference pass: got %s, want %s", got, e.fx.ref))
	}
	return ps
}

// ---- the two workloads ----

const (
	setupReps   = 3
	minPasses   = 3
	maxResidual = 0.10
)

// runIngest runs extract_batch or ingest_replay.
func runIngest(cfg runConfig) (*result, error) {
	res := newResult()
	replay := cfg.workload == "ingest_replay"

	// Set-up, several times over so its median is steady; the last one is
	// the fixture the passes use.
	var fx *fixture
	var env *replayEnv
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.close()
		}
		fx, env = nil, nil
		runtime.GC()
		t0 := time.Now()
		world, err := sizedWorld(cfg.seed)
		if err != nil {
			return nil, err
		}
		if fx, err = record(world); err != nil {
			return nil, err
		}
		if replay {
			cdn, err := startReplayCDN(fx.tape)
			if err != nil {
				return nil, err
			}
			fr, err := startFront()
			if err != nil {
				cdn.close()
				return nil, err
			}
			env = &replayEnv{fx: fx, cdn: cdn, transport: replayTransport(cdn.addr()), front: fr}
			if !cfg.trace {
				fx.corpus = nil // only the batch workload and the probes read it
			}
		} else {
			fx.tape = nil // only the replay workload reads it
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	if env != nil {
		defer env.close()
	}
	logf("fixture: %d responses (%d MB) on tape, reference %s", fx.tapeCount, fx.tapeBytes>>20, fx.ref)

	onePass := func(concurrency int, tr *tracer) *pass {
		if replay {
			return replayPass(env, concurrency, tr)
		}
		return extractPass(fx, concurrency, tr)
	}
	tally := func(ps *pass) {
		// One operation per thumbnail, one per refresh, one for the
		// pass's output check.
		res.attempted += ps.thumbs + 1
		if ps.run != nil {
			res.attempted += len(ps.run.refreshMs)
		}
		res.fail(ps.failures...)
	}

	tally(onePass(0, nil)) // warm: pools, connections, the heap's size
	runtime.GC()

	if cfg.trace {
		return res, tracedIngest(cfg, res, fx, env, onePass, tally)
	}

	var wallS, thumbs, alloc float64
	var opUs, tailUs, rates []float64
	var last *pass
	t0 := time.Now()
	for len(rates) < minPasses || time.Since(t0).Seconds() < cfg.seconds {
		ps := onePass(0, nil)
		tally(ps)
		wallS += ps.wall.Seconds()
		thumbs += float64(ps.thumbs)
		alloc += float64(ps.alloc)
		rates = append(rates, float64(ps.thumbs)/ps.wall.Seconds())
		if replay {
			// Most refreshes of a day fall in its quiet hours and take in
			// next to nothing, and how many do depends on the seed's
			// world, so the median refresh says little. A pass's mean
			// refresh is its whole refresh work over a fixed count — the
			// same work on every seed — and the median is taken over
			// passes; the tail is taken over all refreshes.
			opUs = append(opUs, stats.Sum(ps.run.refreshMs)/float64(len(ps.run.refreshMs))*1e3)
			for _, ms := range ps.run.refreshMs {
				tailUs = append(tailUs, ms*1e3)
			}
		} else {
			// A pass's cost follows its size: time per 1,000 thumbnails.
			opUs = append(opUs, float64(ps.wall.Nanoseconds())/1e3*1000/float64(ps.thumbs))
		}
		last = ps
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(last)
	runtime.KeepAlive(fx)

	tail := opUs
	if replay {
		tail = tailUs
	}
	// The median pass, not the total over the run: a pass that shared its
	// cores with something else should not move the figure.
	res.set("ops_per_s", stats.Median(rates), len(rates))
	res.set("op_p50_us", stats.Median(opUs), len(opUs))
	res.set("op_tail_us", stats.Percentile(tail, 90), len(tail))
	res.set("alloc_kb_per_op", alloc/thumbs/1024, int(thumbs))
	res.set("live_heap_mb", float64(m.HeapAlloc)/(1<<20), 1)
	logf("%d passes, %.0f thumbnails in %.2fs timed", len(rates), thumbs, wallS)
	return res, nil
}

// tracedIngest alternates untraced and traced serial passes for the run's
// duration: with Concurrency 1 one goroutine does all the work, so layer
// self times add up to the pass's wall time. Per-layer figures are medians
// over the traced passes; the kernel probes run once at the end.
func tracedIngest(cfg runConfig, res *result, fx *fixture, env *replayEnv,
	onePass func(int, *tracer) *pass, tally func(*pass)) error {
	tr := newTracer()
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var last *pass
	t0 := time.Now()
	for pairs := 0; pairs < 1 || time.Since(t0).Seconds() < cfg.seconds; pairs++ {
		plain := onePass(1, nil)
		tally(plain)
		ps := onePass(1, tr)
		tally(ps)
		last = ps
		s := tr.summarize(tr.trace)
		n := float64(ps.thumbs)

		add("trace.overhead_ratio", ps.wall.Seconds()/plain.wall.Seconds())
		add("trace.residual_ratio", s.residual())
		add("trace.spans", float64(s.spans))
		add("runtime.gc_cycles", float64(ps.gcCycles))
		add("runtime.gc_pause_ms", float64(ps.gcPause)/1e6)
		add("runtime.alloc_mb", float64(ps.alloc)/(1<<20))

		add("objstore.ops", float64(s.calls("objstore.")))
		add("objstore.bytes_put", float64(ps.obj.bytesPut))
		add("objstore.put_busy_s", s.busyS("objstore.put"))
		add("objstore.get_busy_s", s.busyS("objstore.get"))
		add("objstore.list_delete_busy_s", s.busyS("objstore.list")+s.busyS("objstore.delete"))
		add("kvstore.ops", float64(s.calls("kvstore.")))
		add("kvstore.ops_per_thumb", float64(s.calls("kvstore."))/n)
		add("kvstore.busy_s", s.busyS("kvstore."))
		add("ocr.busy_s", s.busyS("ocr."))
		add("imageproc.extract_busy_s", s.busyS("imageproc.extract"))
		add("imageproc.self_s", s.selfS("imageproc"))
		add("pipeline.ingest_busy_s", s.busyS("pipeline.ingest"))
		add("pipeline.process_self_s", float64(s.selfByName["pipeline.process"])/1e9)
		add("pipeline.analyze_busy_s", s.busyS("pipeline.analyze"))
		add("pipeline.publish_busy_s", s.busyS("pipeline.publish"))
		add("pipeline.self_s", s.selfS("pipeline"))
		if ps.run == nil {
			continue
		}
		add("download.requests", float64(s.calls("nethttp.cdn")+s.calls("nethttp.streams")))
		add("download.bytes", float64(ps.rt.cdn.bytes+ps.rt.streams.bytes))
		add("download.unchanged_ratio", float64(ps.rt.heads-ps.rt.gets)/float64(ps.rt.heads))
		add("download.http_busy_s", s.busyS("nethttp.cdn")+s.busyS("nethttp.streams"))
		add("download.self_s", s.selfS("download"))
		add("download.tick_p50_us", stats.Median(s.durs["download.tick"])/1e3)
		add("replaycdn.busy_s", s.busyS("replaycdn."))
		add("replaycdn.exhausted", float64(env.cdn.exhausted.Load()))
		add("nethttp.self_s", s.selfS("nethttp"))
		add("location.locate_busy_s", s.busyS("location.locate"))
		add("location.self_s", s.selfS("location"))
		add("location.lookups", float64(s.calls("nethttp.users")+s.calls("nethttp.social")))
		add("location.located_ratio", float64(ps.p.Located)/float64(ps.p.Located+ps.p.Unlocated))
		add("serve.self_s", s.selfS("serve"))
		add("serve.build_ms_p50", stats.Median(s.durs["serve.build"])/1e6)
		add("serve.swap_us_p50", stats.Median(s.durs["serve.swap"])/1e3)
	}
	for name, v := range samples {
		res.set(name, stats.Median(v), len(v))
	}
	checkResidual(res)
	res.tracer = tr

	probeKernels(res, fx)
	probeAnalysis(res, last.p)
	return nil
}

// checkResidual holds a traced run to its accounting: the layers' self
// times must add up to the pass's wall time but for a tenth.
func checkResidual(res *result) {
	res.attempted++
	if r := res.metrics["trace.residual_ratio"].value; r > maxResidual {
		res.fail(fmt.Sprintf("%.3f of the traced wall time is in no layer's span (limit %.2f)", r, maxResidual))
	}
}

// probeKernels times the extraction stack bottom-up on corpus inputs — PGM
// decode, the two imaging kernels on the game's crop, each OCR engine on the
// pre-processed crop, the whole Extract — and scores the outcomes against
// what the renderer really drew.
func probeKernels(res *result, fx *fixture) {
	x := pipeline.New(fx.base, 1).Extractor
	engines := x.Engines
	var decodeNs, scaleNs, blurNs, extractNs []float64
	engineNs := make([][]float64, len(engines))
	timeIt := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0).Nanoseconds())
	}
	sessions := map[string][]*worldsim.GenStream{}
	var shown, missed, read, wrong int
	for _, t := range fx.corpus {
		game := games.ByName(t.meta["game"])
		var img *imaging.Gray
		decodeNs = append(decodeNs, timeIt(func() { img, _ = imaging.DecodePGM(bytes.NewReader(t.data)) }))
		if img == nil {
			continue
		}
		if game == nil {
			imaging.Recycle(img)
			continue
		}
		crop := img.Crop(game.UI.CropRect(x.Pad))
		var up, pre *imaging.Gray
		scaleNs = append(scaleNs, timeIt(func() { up = crop.ScaleNearest(x.Upscale) }))
		blurNs = append(blurNs, timeIt(func() { pre = up.GaussianBlur(x.BlurSigma) }))
		for i, e := range engines {
			engineNs[i] = append(engineNs[i], timeIt(func() { e.Recognize(pre) }))
		}
		imaging.Recycle(up)
		imaging.Recycle(pre)
		imaging.Recycle(crop)
		var ex struct {
			ok    bool
			value int
		}
		extractNs = append(extractNs, timeIt(func() {
			e := x.Extract(img, game)
			ex.ok, ex.value = e.OK, e.Value
		}))
		imaging.Recycle(img)

		truth, ok := fx.truthOf(sessions, t)
		if !ok || truth.Clock || truth.ShownMs <= 0 {
			continue // nothing legible to be right or wrong about
		}
		shown++
		switch {
		case !ex.ok:
			missed++
		default:
			read++
			if ex.value != truth.ShownMs {
				wrong++
			}
		}
	}
	res.set("imaging.decode_ns_per_thumb", stats.Median(decodeNs), len(decodeNs))
	res.set("imaging.scale2x_ns", stats.Median(scaleNs), len(scaleNs))
	res.set("imaging.blur_ns", stats.Median(blurNs), len(blurNs))
	for i, e := range engines {
		res.set("ocr."+e.Name()+"_ns", stats.Median(engineNs[i]), len(engineNs[i]))
	}
	res.set("imageproc.extract_ns_per_thumb", stats.Median(extractNs), len(extractNs))
	if shown == 0 {
		return
	}
	miss, wrongR := float64(missed)/float64(shown), 0.0
	if read > 0 {
		wrongR = float64(wrong) / float64(read)
	}
	res.set("ocr.miss_ratio", miss, shown)
	res.set("ocr.wrong_ratio", wrongR, read)
	res.attempted++
	if miss > missRatioCeiling || wrongR > wrongRatioCeiling {
		res.fail(fmt.Sprintf("OCR error ratios against render truth: miss %.4f (ceiling %.2f), wrong %.4f (ceiling %.2f)",
			miss, missRatioCeiling, wrongR, wrongRatioCeiling))
	}
}

// probeAnalysis times stream building and the §3.3 analysis on the state a
// finished pass left behind. PublishAt runs both inside one call, so within
// a pass they are only visible together (pipeline.publish_busy_s).
func probeAnalysis(res *result, p *pipeline.Pipeline) {
	var streams []core.Stream
	t0 := time.Now()
	streams = p.BuildStreams()
	res.set("pipeline.build_streams_ms", float64(time.Since(t0).Nanoseconds())/1e6, 1)

	type key struct{ streamer, game string }
	grouped := map[key][]core.Stream{}
	var order []key
	for _, s := range streams {
		k := key{s.Streamer, s.Game}
		if _, ok := grouped[k]; !ok {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], s)
	}
	if len(order) == 0 {
		return
	}
	t0 = time.Now()
	for _, k := range order {
		core.Analyze(grouped[k], coreParams)
	}
	res.set("core.analyze_us_per_group", float64(time.Since(t0).Nanoseconds())/1e3/float64(len(order)), len(order))
}
