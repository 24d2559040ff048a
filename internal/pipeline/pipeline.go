// Package pipeline wires the full Tero system end-to-end against a running
// platform, the way the paper's micro-service deployment works (App. B):
// the download module fills the object store with thumbnails; image-
// processing workers pull thumbnails, extract latency, push measurements to
// the document store and delete the thumbnail (§7: intermediate data is
// deleted as soon as it is processed); the location module locates
// streamers via the API and social endpoints; and the data-analysis module
// builds streams and runs the §3.3 pipeline.
//
// Like the paper's deployment, the expensive stages run on a pool of
// workers (Concurrency): thumbnail extraction, downloader polling, location
// lookups and per-{streamer, game} analysis all fan out. Determinism is
// preserved by splitting each stage into a pure parallel part and a serial
// merge that applies side effects (document inserts, key-value writes,
// stat counters) in the same canonical order as a serial run — output is
// bit-identical at any concurrency level.
//
// Streamer identities are pseudonymized with a consistent hash before
// storage (§7): the pipeline needs to link measurements of one streamer,
// not to remember who the streamer is.
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tero/internal/core"
	"tero/internal/docstore"
	"tero/internal/download"
	"tero/internal/geo"
	"tero/internal/imageproc"
	"tero/internal/kvstore"
	"tero/internal/location"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/serve"
)

// Observability: stage counters mirror the struct counters below into the
// obs.Default registry so a /metrics scrape sees the same numbers, and
// every public stage runs under a span (`span_seconds{stage=pipeline.*}`).
var (
	plog = obs.L("pipeline")

	mProcessed   = obs.C("pipeline_thumbs_processed_total")
	mExtracted   = obs.C("pipeline_measurements_total")
	mZero        = obs.C("pipeline_lobby_zero_total")
	mMissed      = obs.C("pipeline_extract_miss_total")
	mQuarantined = obs.C("pipeline_thumbs_quarantined_total")
	mLocated     = obs.C("pipeline_located_total")
	mUnlocated   = obs.C("pipeline_unlocated_total")
	mStreams     = obs.G("pipeline_streams_built")
	mPendingQ    = obs.G("pipeline_pending_location")

	// Where ProcessThumbnails found each thumbnail's extraction: done by the
	// time it asked, still in flight (it waited, for hExtractWait), or never
	// started ahead (extracted inline).
	mAheadReady  = obs.C(obs.Lbl("pipeline_extract_ahead_total", "state", "ready"))
	mAheadWaited = obs.C(obs.Lbl("pipeline_extract_ahead_total", "state", "waited"))
	mAheadInline = obs.C(obs.Lbl("pipeline_extract_ahead_total", "state", "inline"))
	hExtractWait = obs.H("pipeline_extract_wait_seconds", obs.DurationBuckets)
)

// QuarantineBucket holds thumbnails that failed to decode (truncated or
// bit-corrupted PGMs slipping past the download-path digest check): they
// are counted and moved aside instead of poisoning OCR downstream, and kept
// for post-mortem inspection rather than silently deleted.
const QuarantineBucket = "thumbs-quarantine"

// Pipeline is a fully wired Tero instance.
type Pipeline struct {
	KV      kvstore.KV
	Objects objstore.API
	Docs    *docstore.Store

	Coordinator *download.Coordinator
	Downloaders []*download.Downloader
	Extractor   *imageproc.Extractor
	Locator     *location.Module
	Social      location.SocialLookup
	API         *download.APIClient

	// Concurrency is the worker parallelism of the extraction, download,
	// location and analysis stages. 0 means GOMAXPROCS; 1 reproduces the
	// fully serial pipeline. Output is identical at every setting.
	Concurrency int

	// Salt for the consistent streamer-ID pseudonymization.
	Salt string

	// Stats.
	Processed, Extracted, Zero, Missed int
	Located, Unlocated                 int
	// Quarantined counts corrupt (undecodable) thumbnails moved to
	// QuarantineBucket instead of being processed.
	Quarantined int

	// freshMark is the high-water OCR timestamp (unix seconds) across all
	// readings already seen by a publish; PublishAt treats readings above it
	// as newly queryable (freshness observation + journey finalization).
	// freshSeq is the measurement-collection cursor behind it: a publish
	// reads only the documents inserted since the previous one.
	freshMark int64
	freshSeq  int

	// The analysis cache behind Analyze: one pair per {streamer, game}
	// analysed so far, in canonical (streamer, game) order, and what has
	// been written since — marked where the data is written, by
	// IngestResult and LocateStreamers. Measurements are only ever
	// inserted, so a pair never goes away.
	pairs      map[pairKey]*pair
	order      []*pair
	dirty      map[pairKey]struct{} // pairs that took a measurement since their analysis
	moved      map[string]struct{}  // streamers whose location history changed since theirs
	analyzed   bool                 // Analyze has run, with analyzedBy
	analyzedBy core.Params
	// publishedTo is the builder the last PublishAt fed: it holds every
	// pair's published analysis and nothing else.
	publishedTo *serve.Builder

	// ahead holds, by thumbnail key, the extractions Tick started and
	// ProcessThumbnails has not merged yet; slots bounds how many run at
	// once (see extractAhead). Both belong to the goroutine that calls Tick
	// and ProcessThumbnails.
	ahead map[string]*aheadResult
	slots chan struct{}
}

type pairKey struct{ streamer, game string }

// pair is the analysis state of one {streamer, game}.
type pair struct {
	pairKey
	analysis  *core.Analysis // core.Analyze over the pair's current streams
	published *core.Analysis // what publishedTo holds for the pair; nil if nothing
}

// New wires a pipeline against the platform at baseURL.
func New(baseURL string, downloaders int) *Pipeline {
	return NewWithKV(baseURL, downloaders, kvstore.New())
}

// NewWithKV wires a pipeline like New but coordinating through the given
// store — a RemoteStore over TCP (shared-store deployment) or a durable
// kvstore.Open store (crash recovery), instead of a private in-memory one.
func NewWithKV(baseURL string, downloaders int, kv kvstore.KV) *Pipeline {
	objects := objstore.New()
	docs := docstore.New()
	api := download.NewAPIClient(baseURL)
	p := &Pipeline{
		KV:          kv,
		Objects:     objects,
		Docs:        docs,
		Coordinator: download.NewCoordinator(kv, api),
		Extractor:   imageproc.New(),
		Locator:     location.New(),
		Social:      location.NewHTTPSocial(baseURL),
		API:         api,
		Salt:        "tero-reproduction",
		pairs:       make(map[pairKey]*pair),
		dirty:       make(map[pairKey]struct{}),
		moved:       make(map[string]struct{}),
	}
	if downloaders < 1 {
		downloaders = 1
	}
	for i := 0; i < downloaders; i++ {
		p.Downloaders = append(p.Downloaders,
			download.NewDownloader("dl"+strconv.Itoa(i), kv, objects))
	}
	p.Docs.C("measurements").EnsureIndex("streamer")
	return p
}

// SetKV repoints the whole pipeline — coordinator and every downloader —
// at a new store. This is the failover hook: when a primary dies, promote
// its replica and hand the pipeline the replica's address.
func (p *Pipeline) SetKV(kv kvstore.KV) {
	p.KV = kv
	p.analyzed = false // location history lives in the store: re-derive every analysis from the new one
	p.Coordinator.KV = kv
	for _, d := range p.Downloaders {
		d.KV = kv
	}
}

// workers resolves the effective worker count.
func (p *Pipeline) workers() int {
	if p.Concurrency > 0 {
		return p.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for i in [0, n) on a pool of the given number of
// workers (a stage passes p.workers(), or fewer when it caps its fan-out)
// and blocks until all calls return. With one worker (or n == 1) it
// degrades to a plain loop on the calling goroutine. fn must confine itself
// to index-disjoint writes (or internally synchronized stores) — this is
// the parallel half of every stage; ordered side effects belong in the
// caller's merge step.
//
// A panic inside fn no longer kills the process from an anonymous worker
// goroutine: it is recovered, counted (`pipeline_worker_panics_total`),
// logged with its item index, and — after every remaining item has run, so
// behavior matches at all concurrency levels — re-panicked on the calling
// goroutine with the stage name attached. When several items panic, the one
// with the lowest index wins, deterministically.
func forEach(stage string, workers, n int, fn func(i int)) {
	var panicMu sync.Mutex
	panicIdx := -1
	var panicVal any
	run := func(i int) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			obs.C(obs.Lbl("pipeline_worker_panics_total", "stage", stage)).Inc()
			plog.Error("worker panic", "stage", stage, "item", i, "panic", fmt.Sprint(r))
			panicMu.Lock()
			if panicIdx < 0 || i < panicIdx {
				panicIdx, panicVal = i, r
			}
			panicMu.Unlock()
		}()
		fn(i)
	}
	w := min(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	if panicIdx >= 0 {
		panic(fmt.Sprintf("pipeline: stage %s: worker panicked on item %d: %v",
			stage, panicIdx, panicVal))
	}
}

// Anonymize maps a platform streamer ID to the stable pseudonymous ID used
// in all stored data (§7).
func (p *Pipeline) Anonymize(id string) string {
	sum := sha256.Sum256([]byte(p.Salt + "|" + id))
	return "anon-" + hex.EncodeToString(sum[:8])
}

// Tick runs one poll round of the download module at virtual time now.
// Unless Concurrency is 1, the downloaders all poll at once (they share state
// only through the key-value and object stores, both safe for concurrent use,
// and the round is socket-bound: like LocateStreamers' it is sized by the
// work, not the cores), and the thumbnails they stored start extracting in
// the background (extractAhead) while the caller goes on to the next tick.
//
// Failures are isolated, never fail-stop: a coordinator error does not
// prevent the downloaders from working their existing assignments, and each
// downloader already isolates errors per streamer. Everything that failed
// is reported as one joined error in deterministic order (coordinator
// first, then downloaders in fleet order), so the error surfaced does not
// depend on goroutine scheduling; callers may treat it as a warning — the
// download module has already applied its backoff/release recovery.
func (p *Pipeline) Tick(now time.Time, pollCoordinator bool) error {
	sp := trace.StartStage("pipeline.download")
	defer sp.End()
	var errs []error
	if pollCoordinator {
		if err := p.Coordinator.PollOnce(); err != nil {
			errs = append(errs, fmt.Errorf("coordinator: %w", err))
		}
	}
	derrs := make([]error, len(p.Downloaders))
	ahead, w := p.Concurrency != 1, 1
	if ahead {
		w = len(p.Downloaders)
	}
	forEach("download", w, len(p.Downloaders), func(i int) {
		derrs[i] = p.Downloaders[i].PollOnce(now)
	})
	for i, err := range derrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("downloader %s: %w", p.Downloaders[i].ID, err))
		}
		if ahead {
			p.extractAhead(p.Downloaders[i].Stored())
		}
	}
	if err := errors.Join(errs...); err != nil {
		plog.Warn("tick completed with errors", "err", err)
		return err
	}
	return nil
}

// thumbResult wraps the pure ThumbResult (extract.go) with the in-process
// bookkeeping the local merge needs.
type thumbResult struct {
	found bool // object read succeeded
	res   ThumbResult
	// Tracing: the journey context propagated in the object metadata, plus
	// the worker-side extraction timings. Workers only capture; span IDs are
	// allocated in the serial merge so trace trees are deterministic. An
	// extraction that ran ahead has its wstart/wend from when it ran, so its
	// pipeline.extract span starts before the stage span of the
	// ProcessThumbnails call that records it.
	traceCtx     string
	wstart, wend time.Time
}

// aheadResult is one extraction started by extractAhead. r and panicked are
// written before done is closed and read only after.
type aheadResult struct {
	done     chan struct{}
	r        thumbResult
	panicked any // what extractOne panicked with, if it did
}

// extractAhead starts extractOne in the background for thumbnails a
// downloader has just stored, so that OCR rides the download instead of
// waiting for the next refresh; ProcessThumbnails takes the results. At most
// workers()−1 run at once (the caller's own goroutine is busy on the download
// path and needs the remaining core), but at least one. Only the pure half
// runs here: every side effect stays in ProcessThumbnails' key-ordered
// merge. A key stored again before its merge gets a fresh extraction, which
// replaces the stale one. Nothing has to be closed: a goroutine finishes its
// one thumbnail and exits, whether or not anyone takes the result.
func (p *Pipeline) extractAhead(keys []string) {
	if len(keys) == 0 {
		return
	}
	if p.ahead == nil {
		p.ahead = make(map[string]*aheadResult)
	}
	if n := max(1, p.workers()-1); cap(p.slots) != n {
		p.slots = make(chan struct{}, n)
	}
	slots, traced := p.slots, trace.Enabled()
	for _, key := range keys {
		a := &aheadResult{done: make(chan struct{})}
		p.ahead[key] = a
		go func() {
			slots <- struct{}{}
			defer func() {
				a.panicked = recover() // re-raised by ProcessThumbnails
				<-slots
				close(a.done)
			}()
			a.r = p.extractOne(key, traced)
		}()
	}
}

// ProcessThumbnails drains the thumbnail bucket: extract latency, store the
// measurement, delete the thumbnail. Returns the number processed.
//
// Extraction (PGM decode → OCR → vote) fans out to the worker pool — each
// worker first takes the result extractAhead already has for the key,
// waiting for it if it is in flight (a panic there is re-raised here, under
// forEach's rule), and extracts only what was never started; the results
// are then merged in thumbnail-key order, so document IDs, counters and
// pending-location entries are identical to a serial run.
func (p *Pipeline) ProcessThumbnails() int {
	sp := trace.StartStage("pipeline.extract")
	defer sp.End()
	keys := p.Objects.List(download.ThumbBucket, "")
	if len(keys) == 0 {
		return 0
	}
	traced := trace.Enabled()
	results := make([]thumbResult, len(keys))
	forEach("extract", p.workers(), len(keys), func(i int) {
		a := p.ahead[keys[i]]
		if a == nil {
			mAheadInline.Inc()
			results[i] = p.extractOne(keys[i], traced)
			return
		}
		select {
		case <-a.done:
			mAheadReady.Inc()
		default:
			t0 := time.Now()
			<-a.done
			hExtractWait.Observe(time.Since(t0).Seconds())
			mAheadWaited.Inc()
		}
		if a.panicked != nil {
			panic(fmt.Sprintf("extraction ahead of %s: %v", keys[i], a.panicked))
		}
		results[i] = a.r
	})
	clear(p.ahead) // every key stored before the List above is merged below

	// Deterministic merge in key order: counters, documents and
	// pending-location entries via IngestResult (shared with the
	// distributed coordinator), object moves and trace spans here.
	n := 0
	for i, key := range keys {
		r := &results[i]
		if !r.found {
			continue
		}
		// The reading's journey (rooted at download.fetch) continues here:
		// record the extract span as a child of the propagated context.
		// Readings that die in this stage have their journey finished now;
		// measured readings stay open until publish.
		jctx, _ := trace.ParseTraceparent(r.traceCtx)
		switch r.res.Outcome {
		case OutcomeCorrupt:
			// Corrupt thumbnail: count it and move it aside so it cannot
			// poison OCR; the pipeline keeps going on the healthy rest.
			p.IngestResult(r.res, trace.Context{})
			if obj, err := p.Objects.Get(download.ThumbBucket, key); err == nil {
				p.Objects.Put(QuarantineBucket, key, obj.Data, obj.Meta)
			}
			p.Objects.Delete(download.ThumbBucket, key)
			plog.Warn("quarantined corrupt thumbnail", "key", key)
			trace.RecordSpan(jctx, "pipeline.extract", r.wstart, r.wend,
				"corrupt thumbnail: pgm decode failed", trace.A("key", key))
			trace.Finish(jctx.TraceID)
			n++
			continue
		case OutcomeMeasured:
			ec := trace.RecordSpan(jctx, "pipeline.extract",
				r.wstart, r.wend, "", trace.A("game", r.res.Game))
			p.IngestResult(r.res, ec)
		case OutcomeZero:
			p.IngestResult(r.res, trace.Context{})
			trace.RecordSpan(jctx, "pipeline.extract", r.wstart, r.wend, "",
				trace.A("outcome", "lobby_zero"))
			trace.Finish(jctx.TraceID)
		case OutcomeMiss:
			p.IngestResult(r.res, trace.Context{})
			trace.RecordSpan(jctx, "pipeline.extract", r.wstart, r.wend, "",
				trace.A("outcome", "ocr_miss"))
			trace.Finish(jctx.TraceID)
		default: // OutcomeUnknown
			// Decoded fine but the game is not recognized: journey ends.
			trace.RecordSpan(jctx, "pipeline.extract", r.wstart, r.wend, "",
				trace.A("outcome", "unknown_game"))
			trace.Finish(jctx.TraceID)
		}
		// §7: delete the thumbnail as soon as it is processed.
		p.Objects.Delete(download.ThumbBucket, key)
		n++
	}
	mPendingQ.Set(float64(len(p.KV.HGetAll("pending-location"))))
	plog.Debug("thumbnails processed", "batch", n,
		"extracted", p.Extracted, "missed", p.Missed, "zero", p.Zero)
	return n
}

// extractOne runs the pure extraction for one thumbnail key: object read,
// PGM decode, OCR pipeline, timed when traced. No pipeline state is mutated.
func (p *Pipeline) extractOne(key string, traced bool) thumbResult {
	var r thumbResult
	if traced {
		r.wstart = time.Now()
	}
	if obj, err := p.Objects.Get(download.ThumbBucket, key); err == nil {
		r.found = true
		r.res = ExtractThumb(p.Extractor, obj)
		r.traceCtx = obj.Meta["trace"]
	}
	if traced {
		r.wend = time.Now()
	}
	return r
}

// relocateEvery is how often a streamer's profiles are re-examined: a
// streamer may advertise a new location after moving (§3.1.1), in which
// case the pipeline keeps both — each {streamer, location} pair acts as a
// distinct end-point in analysis.
const relocateEvery = 24 * time.Hour

// Outcomes of one locateOne call, merged serially into the counters.
const (
	locNone      = iota // skipped (recent, or API error — stays pending)
	locLocated          // location found
	locUnlocated        // first failed attempt recorded
)

// LocateStreamers runs the location module for every streamer with pending
// measurements, maintaining a {pseudonym -> location history} and
// forgetting the real ID. `now` is the pipeline's virtual time.
//
// Lookups fan out to the worker pool: each streamer's API and social
// requests touch only that streamer's keys, so the parallel half is
// conflict-free, and the counters are merged in sorted-streamer order.
func (p *Pipeline) LocateStreamers(now time.Time) int {
	sp := trace.StartStage("pipeline.locate")
	defer sp.End()
	pending := p.KV.HGetAll("pending-location")
	ids := make([]string, 0, len(pending))
	for realID := range pending {
		ids = append(ids, realID)
	}
	sort.Strings(ids)

	// The platform API enforces its rate limit in real time, so N workers
	// sharing it multiply each request's expected 429-retry wait by N:
	// scale the per-request retry budget accordingly (capped fan-out — the
	// lookups are I/O-bound, more workers only add contention).
	w := p.workers()
	if w > 8 {
		w = 8
	}
	if w > 1 && p.API != nil {
		if base := p.API.MaxRetries; base > 0 && base < 20*w {
			p.API.MaxRetries = 20 * w
		}
	}

	traced := trace.Enabled()
	type locResult struct {
		outcome      int
		moved        bool
		wstart, wend time.Time
	}
	outcomes := make([]locResult, len(ids))
	forEach("locate", w, len(ids), func(i int) {
		if traced {
			outcomes[i].wstart = time.Now()
		}
		outcomes[i].outcome, outcomes[i].moved = p.locateOne(ids[i], pending[ids[i]], now)
		if traced {
			outcomes[i].wend = time.Now()
		}
	})

	located := 0
	for i, o := range outcomes {
		switch o.outcome {
		case locLocated:
			located++
			p.Located++
			mLocated.Inc()
		case locUnlocated:
			p.Unlocated++
			mUnlocated.Inc()
		}
		if o.moved {
			// Every stream of the streamer resolves its location through
			// the history that just changed.
			p.moved[p.Anonymize(ids[i])] = struct{}{}
		}
		if traced {
			// Per-streamer child spans under the stage trace, recorded in
			// sorted-streamer order. Only the pseudonym is attached (§7).
			out := [...]string{"pending", "located", "unlocated"}[o.outcome]
			trace.RecordSpan(sp.Context(), "pipeline.locate_one",
				o.wstart, o.wend, "",
				trace.A("streamer", p.Anonymize(ids[i])), trace.A("outcome", out))
		}
	}
	mPendingQ.Set(float64(len(p.KV.HGetAll("pending-location"))))
	plog.Debug("location round", "pending", len(ids), "located", located)
	return located
}

// locateOne runs the serial location procedure for a single streamer. All
// key-value writes are under keys derived from this streamer alone. moved
// reports that the streamer's location history gained an entry (the empty
// "tried, unknown" marker resolves to no location, as its absence did).
func (p *Pipeline) locateOne(realID, login string, now time.Time) (outcome int, moved bool) {
	anon := p.Anonymize(realID)
	if last, ok := p.KV.Get("locat:" + anon); ok {
		if t, err := time.Parse(time.RFC3339, last); err == nil &&
			now.Sub(t) < relocateEvery {
			p.KV.HDel("pending-location", realID)
			return locNone, false
		}
	}
	_, desc, err := p.API.UserDescription(realID)
	if err != nil {
		return locNone, false // stays pending for the next round
	}
	tag, _ := p.KV.HGet(download.KeyTags, realID)
	res := p.Locator.Locate(login, desc, tag, p.Social)
	p.KV.Set("locat:"+anon, now.UTC().Format(time.RFC3339))
	if res.OK {
		// Record in the history only if the location changed (§3.1.1:
		// occasionally a streamer advertises a new location — keep both).
		prev, _ := p.KV.Get("loc:" + anon)
		if enc := encodeLocation(res.Loc); enc != prev {
			p.KV.HSet("lochist:"+anon, now.UTC().Format(time.RFC3339), enc)
			p.KV.Set("loc:"+anon, enc)
			moved = true
		}
		outcome = locLocated
	} else if _, tried := p.KV.Get("loc:" + anon); !tried {
		p.KV.Set("loc:"+anon, "") // tried, unknown
		outcome = locUnlocated
	}
	p.KV.HDel("pending-location", realID)
	return outcome, moved
}

// LocationAt returns the streamer's recorded location as of time t: the
// latest history entry not after t, else the earliest known one.
func (p *Pipeline) LocationAt(anonID string, t time.Time) (geo.Location, bool) {
	hist := p.KV.HGetAll("lochist:" + anonID)
	if len(hist) == 0 {
		return p.LocationOf(anonID)
	}
	var bestAt, earliestAt time.Time
	var best, earliest string
	for stamp, enc := range hist {
		at, err := time.Parse(time.RFC3339, stamp)
		if err != nil {
			continue
		}
		if earliest == "" || at.Before(earliestAt) {
			earliestAt, earliest = at, enc
		}
		if !at.After(t) && (best == "" || at.After(bestAt)) {
			bestAt, best = at, enc
		}
	}
	if best == "" {
		best = earliest
	}
	if best == "" {
		return geo.Location{}, false
	}
	return decodeLocation(best), true
}

// escapeLocField makes a location field safe to join with the '|'
// separator: backslash-escape the separator and the escape itself, so a
// city like "Foo|Bar" round-trips instead of silently shifting fields.
func escapeLocField(s string) string {
	if !strings.ContainsAny(s, `|\`) {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '|' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

func encodeLocation(l geo.Location) string {
	return escapeLocField(l.City) + "|" + escapeLocField(l.Region) + "|" +
		escapeLocField(l.Country)
}

func decodeLocation(s string) geo.Location {
	var parts [3]string
	field := 0
	var cur []byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && i+1 < len(s):
			i++
			cur = append(cur, s[i])
		case c == '|' && field < 2:
			parts[field] = string(cur)
			cur = cur[:0]
			field++
		default:
			cur = append(cur, c)
		}
	}
	parts[field] = string(cur)
	return geo.Location{City: parts[0], Region: parts[1], Country: parts[2]}
}

// LocationOf returns the stored location for a pseudonymized streamer.
func (p *Pipeline) LocationOf(anonID string) (geo.Location, bool) {
	v, ok := p.KV.Get("loc:" + anonID)
	if !ok || v == "" {
		return geo.Location{}, false
	}
	return decodeLocation(v), true
}

// streamGap is the silence that ends a stream: the streamer went offline
// (thumbnails stop) — comfortably above the 5-minute cadence plus jitter
// and skipped thumbnails.
const streamGap = 35 * time.Minute

// pointOf converts a stored measurement document into a core.Point. The
// timestamp comes from the epoch field written at insert time; documents
// from older stores fall back to parsing the RFC3339 string.
func pointOf(d docstore.Doc) (core.Point, bool) {
	var pt core.Point
	if unix, ok := d["atUnix"].(int64); ok {
		pt.T = time.Unix(unix, 0).UTC()
	} else {
		at, err := time.Parse(time.RFC3339, d["at"].(string))
		if err != nil {
			return core.Point{}, false
		}
		pt.T = at
	}
	pt.Ms = d["ms"].(float64)
	if alt, ok := d["alt"].(float64); ok {
		pt.Alt, pt.HasAlt = alt, true
	}
	return pt, true
}

// BuildStreams groups stored measurements into streams (§3.3.1): per
// {streamer, game}, chronologically ordered, split where the measurement
// gap exceeds streamGap, each with the location on record at its first
// point (none for a streamer never located). Measurements are fetched per
// streamer through the collection's streamer index rather than a
// full-collection scan.
func (p *Pipeline) BuildStreams() []core.Stream {
	sp := trace.StartStage("pipeline.build_streams")
	defer sp.End()
	var out []core.Stream
	for _, streamer := range p.Docs.C("measurements").Distinct("streamer") {
		out = append(out, p.streamsOf(streamer)...)
	}
	mStreams.Set(float64(len(out)))
	return out
}

// streamsOf builds one streamer's streams, game by game in sorted game
// order and chronological within a game.
func (p *Pipeline) streamsOf(streamer string) []core.Stream {
	byGame := make(map[string][]core.Point)
	for _, d := range p.Docs.C("measurements").FindEq("streamer", streamer) {
		pt, ok := pointOf(d)
		if !ok {
			continue
		}
		game := d["game"].(string)
		byGame[game] = append(byGame[game], pt)
	}
	games := make([]string, 0, len(byGame))
	for g := range byGame {
		games = append(games, g)
	}
	sort.Strings(games)
	var out []core.Stream
	for _, game := range games {
		pts := byGame[game]
		sort.Slice(pts, func(i, j int) bool { return pts[i].T.Before(pts[j].T) })
		// Location can change between streams but not within one
		// (§3.3.1): resolve it at each stream's first point.
		locFor := func(t time.Time) geo.Location {
			loc, _ := p.LocationAt(streamer, t)
			return loc
		}
		cur := core.Stream{Streamer: streamer, Game: game, Location: locFor(pts[0].T)}
		for i, pt := range pts {
			if i > 0 && pt.T.Sub(pts[i-1].T) > streamGap {
				if len(cur.Points) > 0 {
					out = append(out, cur)
				}
				cur = core.Stream{Streamer: streamer, Game: game, Location: locFor(pt.T)}
			}
			cur.Points = append(cur.Points, pt)
		}
		if len(cur.Points) > 0 {
			out = append(out, cur)
		}
	}
	return out
}

// Analyze runs the data-analysis module, one analysis per {streamer, game},
// and returns them all in canonical (streamer, game) order. §3.3's analysis
// is independent per pair, so the pipeline keeps each pair's last analysis
// and re-runs stream building and core.Analyze only for the pairs written
// since: those that took a measurement (IngestResult) and every pair of a
// streamer whose location history changed (LocateStreamers). The first
// call, and a call with different params, analyses every pair. Pairs left
// alone come back pointer-identical; callers must treat analyses as
// read-only. The per-pair analyses are independent (core.Analyze
// deep-copies its input), so they run on the worker pool.
func (p *Pipeline) Analyze(params core.Params) []*core.Analysis {
	sp := trace.StartStage("pipeline.analyze")
	defer sp.End()

	all := !p.analyzed || params != p.analyzedBy
	var streamers []string
	if all {
		streamers = p.Docs.C("measurements").Distinct("streamer")
	} else {
		written := make(map[string]struct{}, len(p.dirty)+len(p.moved))
		for k := range p.dirty {
			written[k.streamer] = struct{}{}
		}
		for s := range p.moved {
			written[s] = struct{}{}
		}
		for s := range written {
			streamers = append(streamers, s)
		}
		sort.Strings(streamers)
	}

	// Serial half: the written streamers' streams, cut into one task per
	// pair to analyse. Tasks are in canonical order, and so are their spans.
	type task struct {
		pr      *pair
		streams []core.Stream
	}
	var tasks []task
	appeared := false
	bs := trace.StartStage("pipeline.build_streams")
	for _, streamer := range streamers {
		_, moved := p.moved[streamer]
		streams := p.streamsOf(streamer)
		for len(streams) > 0 {
			k := pairKey{streamer, streams[0].Game}
			n := 1
			for n < len(streams) && streams[n].Game == k.game {
				n++
			}
			if _, dirty := p.dirty[k]; all || moved || dirty {
				pr := p.pairs[k]
				if pr == nil {
					pr = &pair{pairKey: k}
					p.pairs[k] = pr
					p.order = append(p.order, pr)
					appeared = true
				}
				tasks = append(tasks, task{pr, streams[:n]})
			}
			streams = streams[n:]
		}
	}
	bs.End()
	if appeared {
		sort.Slice(p.order, func(i, j int) bool {
			a, b := p.order[i], p.order[j]
			if a.streamer != b.streamer {
				return a.streamer < b.streamer
			}
			return a.game < b.game
		})
	}

	traced := trace.Enabled()
	results := make([]*core.Analysis, len(tasks))
	var timings [][2]time.Time
	if traced {
		timings = make([][2]time.Time, len(tasks))
	}
	forEach("analyze", p.workers(), len(tasks), func(i int) {
		if traced {
			timings[i][0] = time.Now()
		}
		results[i] = core.Analyze(tasks[i].streams, params)
		if traced {
			timings[i][1] = time.Now()
		}
	})
	for i, t := range tasks {
		t.pr.analysis = results[i]
		if traced {
			// Per-{streamer, game} child spans (the streamer field is
			// already the pseudonym).
			trace.RecordSpan(sp.Context(), "pipeline.analyze_group",
				timings[i][0], timings[i][1], "",
				trace.A("streamer", t.pr.streamer), trace.A("game", t.pr.game))
		}
	}
	clear(p.dirty)
	clear(p.moved)
	p.analyzed, p.analyzedBy = true, params

	out := make([]*core.Analysis, len(p.order))
	streams := 0
	for i, pr := range p.order {
		out[i] = pr.analysis
		streams += len(pr.analysis.Streams)
	}
	mStreams.Set(float64(streams))
	plog.Debug("analysis complete", "pairs", len(out), "analysed", len(tasks))
	return out
}
