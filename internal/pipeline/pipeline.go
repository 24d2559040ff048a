// Package pipeline wires the full Tero system end-to-end against a running
// platform, the way the paper's micro-service deployment works (App. B):
// the download module fills the object store with thumbnails; image-
// processing workers pull thumbnails, extract latency, push measurements to
// the document store and delete the thumbnail (§7: intermediate data is
// deleted as soon as it is processed); the location module locates
// streamers via the API and social endpoints; and the data-analysis module
// builds streams and runs the §3.3 pipeline. The key-value store carries
// only what the download fleet shares; the location module's state —
// pending lookups, each pseudonym's location history — is the pipeline's
// own, since no other process reads it.
//
// Like the paper's deployment, the expensive stages run on a pool of
// workers (Concurrency): thumbnail extraction, downloader polling, location
// lookups and per-{streamer, game} analysis all fan out. Determinism is
// preserved by splitting each stage into a pure parallel part and a serial
// merge that applies side effects (document inserts, location records,
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
	"slices"
	"sort"
	"strconv"
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
	"tero/internal/par"
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

	// Where takeExtractions found each thumbnail's extraction: done by the
	// time it asked, still in flight (it waited, for hExtractWait), or never
	// started ahead (extracted inline).
	mAheadReady  = obs.C(obs.Lbl("pipeline_extract_ahead_total", "state", "ready"))
	mAheadWaited = obs.C(obs.Lbl("pipeline_extract_ahead_total", "state", "waited"))
	mAheadInline = obs.C(obs.Lbl("pipeline_extract_ahead_total", "state", "inline"))
	hExtractWait = obs.H("pipeline_extract_wait_seconds", obs.DurationBuckets)
)

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

	// The location module's state, which only this process reads or writes
	// (the key-value store holds what the fleet shares): pending maps the
	// real ID of each streamer with measurements not yet looked up to its
	// login, until LocateStreamers forgets both (§7); located holds what is
	// known of each pseudonym's location.
	pending map[string]string
	located map[string]*locRecord

	// Stats.
	Processed, Extracted, Zero, Missed int
	Located, Unlocated                 int
	// Quarantined counts corrupt thumbnails (undecodable, or without a
	// readable download stamp): counted and deleted instead of processed.
	Quarantined int

	// freshMark is the high-water OCR timestamp (unix seconds) across all
	// readings already seen by a publish; PublishAt treats readings above it
	// as newly queryable (freshness observation + journey finalization).
	// freshSeq is the measurement-table cursor behind it: a publish reads
	// only the rows inserted since the previous one.
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
	// takeExtractions has not taken yet; slots bounds how many run at once
	// (see extractAhead). Both belong to the goroutine that calls Tick and
	// takeExtractions.
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
// store — a RemoteStore over TCP (shared-store deployment) or a store the
// caller also serves to a fleet (tero -distributed) — instead of a private
// one.
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
		pending:     make(map[string]string),
		located:     make(map[string]*locRecord),
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
	return p
}

// SetKV repoints the whole pipeline — coordinator and every downloader —
// at a new store: the hook a caller uses to wrap the store it was built with,
// as the benchmark's traced passes wrap it in a timing decorator.
func (p *Pipeline) SetKV(kv kvstore.KV) {
	p.KV = kv
	p.Coordinator.KV = kv
	for _, d := range p.Downloaders {
		d.KV = kv
	}
}

// Anonymize maps a platform streamer ID to the stable pseudonymous ID used
// in all stored data (§7).
func (p *Pipeline) Anonymize(id string) string {
	sum := sha256.Sum256([]byte(p.Salt + "|" + id))
	return "anon-" + hex.EncodeToString(sum[:8])
}

// Tick runs one poll round of the download module at virtual time now: the
// downloaders service their due streamers, download.Deal deals the queue
// among them serially — so a streamer is adopted on the tick that queued it,
// by the same downloader at every Concurrency — and each runs the first
// fetches of what it was dealt. Unless Concurrency is 1, the downloaders poll
// and fetch at once (they share state only through the key-value and object
// stores, both safe for concurrent use, and the round is socket-bound, so it
// runs one goroutine per downloader, sized by the work and not the cores —
// unlike LocateStreamers, whose pool is GOMAXPROCS-bound), and the
// thumbnails they stored start extracting in the background (extractAhead)
// while the caller goes on to the next tick.
//
// Failures are isolated, never fail-stop: a coordinator error does not
// prevent the downloaders from working their existing assignments, and each
// downloader already isolates errors per streamer. Everything that failed
// is reported as one joined error in deterministic order (coordinator
// first, then downloaders in fleet order), so the error surfaced does not
// depend on goroutine scheduling; callers may treat it as a warning — the
// download module has already applied its backoff/release recovery.
func (p *Pipeline) Tick(now time.Time, pollCoordinator bool) error {
	return p.TickShare(now, pollCoordinator, nil, nil)
}

// TickShare is Tick for a pipeline whose downloaders are some of a larger
// fleet's: alive, if not nil, reports how many downloaders share the queue,
// and halted, if not nil, stops the deal (see download.Deal).
func (p *Pipeline) TickShare(now time.Time, pollCoordinator bool, alive func() int, halted func() bool) error {
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
	par.For("download", w, len(p.Downloaders), func(i int) {
		derrs[i] = p.Downloaders[i].PollOnce(now)
	})
	download.Deal(p.KV, p.Downloaders, alive, halted)
	par.For("download", w, len(p.Downloaders), func(i int) {
		derrs[i] = errors.Join(derrs[i], p.Downloaders[i].FetchClaimed(now))
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

// extraction is a ThumbResult (extract.go) plus what the caller's span needs:
// the journey context from the object metadata and, when tracing, when the
// extraction ran (ahead of the call that takes it, if it rode the download).
// Span IDs are allocated by whoever records the span, in key order, so trace
// trees are deterministic.
type extraction struct {
	ThumbResult
	Trace      string
	Start, End time.Time
}

// aheadResult is one extraction started by extractAhead. r and panicked are
// written before done is closed and read only after.
type aheadResult struct {
	done     chan struct{}
	r        extraction
	panicked any // what extractOne panicked with, if it did
}

// extractAhead starts extractOne in the background for thumbnails a
// downloader has just stored, so that OCR rides the download instead of
// waiting for the next refresh; takeExtractions takes the results. At most
// par.Workers(p.Concurrency) run at once: with the digest a CRC-32C, the
// tick phase is socket-bound and needs no core of its own. Only the pure half
// runs here: every side effect stays with the caller of takeExtractions. A
// key stored again before it is taken gets a fresh extraction, which
// replaces the stale one. Nothing has to be closed: a goroutine finishes its
// one thumbnail and exits, whether or not anyone takes the result.
func (p *Pipeline) extractAhead(keys []string) {
	if len(keys) == 0 {
		return
	}
	if p.ahead == nil {
		p.ahead = make(map[string]*aheadResult)
	}
	if n := par.Workers(p.Concurrency); cap(p.slots) != n {
		p.slots = make(chan struct{}, n)
	}
	slots, traced := p.slots, trace.Enabled()
	for _, key := range keys {
		a := &aheadResult{done: make(chan struct{})}
		p.ahead[key] = a
		go func() {
			slots <- struct{}{}
			defer func() {
				a.panicked = recover() // re-raised by takeExtractions
				<-slots
				close(a.done)
			}()
			a.r = p.extractOne(key, traced)
		}()
	}
}

// ProcessThumbnails drains the thumbnail bucket into this process
// (DrainThumbnails, merging each result with IngestResult): extract latency,
// store the measurement, delete the thumbnail — in thumbnail-key order, so
// document IDs, counters and pending lookups are identical to a serial
// run. Returns the number processed.
func (p *Pipeline) ProcessThumbnails() int {
	sp := trace.StartStage("pipeline.extract")
	defer sp.End()
	n, _ := p.DrainThumbnails("pipeline.extract", func(r ThumbResult, ctx trace.Context) error {
		p.IngestResult(r, ctx)
		return nil
	})
	if n == 0 {
		return 0
	}
	mPendingQ.Set(float64(len(p.pending)))
	plog.Debug("thumbnails processed", "batch", n,
		"extracted", p.Extracted, "missed", p.Missed, "zero", p.Zero)
	return n
}

// DrainThumbnails settles every thumbnail in the bucket, in key order — the
// one drain of a single process (ProcessThumbnails) and a fleet worker
// (dist) alike. For each extraction (takeExtractions) it records the extract
// span, named span, as a child of the reading's journey (rooted at
// download.fetch) and finishes the journey unless the reading was measured —
// measured readings stay open until publish. It then hands the result and
// the span's context to sink, which merges or pushes it, and deletes the
// thumbnail (§7: as soon as it is processed), a corrupt one included. A
// sink error stops the drain with that thumbnail still in the bucket; the
// error is returned with the number settled before it.
func (p *Pipeline) DrainThumbnails(span string, sink func(ThumbResult, trace.Context) error) (int, error) {
	results := p.takeExtractions()
	for i := range results {
		r := &results[i]
		jctx, _ := trace.ParseTraceparent(r.Trace)
		errMsg := ""
		if r.Outcome == OutcomeCorrupt {
			errMsg = "corrupt thumbnail"
		}
		ec := trace.RecordSpan(jctx, span, r.Start, r.End, errMsg, trace.A("outcome", r.Outcome))
		if r.Outcome != OutcomeMeasured {
			trace.Finish(jctx.TraceID)
		}
		if err := sink(r.ThumbResult, ec); err != nil {
			return i, err
		}
		if r.Outcome == OutcomeCorrupt {
			plog.Warn("deleted corrupt thumbnail", "key", r.Key)
		}
		p.Objects.Delete(download.ThumbBucket, r.Key)
	}
	return len(results), nil
}

// takeExtractions returns the extraction of every thumbnail in the bucket, in
// key order, and merges nothing: DrainThumbnails settles each one. A key gone
// before it was read is left out. Extraction (PGM decode → OCR → vote) fans
// out to the worker pool — each worker takes the result extractAhead has for
// the key, waiting if it is in flight (a panic there is re-raised here, under
// par.For's rule), and extracts only what was never started.
func (p *Pipeline) takeExtractions() []extraction {
	keys := p.Objects.List(download.ThumbBucket, "")
	if len(keys) == 0 {
		return nil
	}
	traced := trace.Enabled()
	results := make([]extraction, len(keys))
	par.For("extract", par.Workers(p.Concurrency), len(keys), func(i int) {
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
	clear(p.ahead) // every key stored before the List above has been taken
	return slices.DeleteFunc(results, func(r extraction) bool { return r.Outcome == "" })
}

// extractOne runs the pure extraction for one thumbnail key: object read,
// PGM decode, OCR pipeline, timed when traced. No pipeline state is mutated.
// A key whose object is gone yields an extraction with no Outcome.
func (p *Pipeline) extractOne(key string, traced bool) extraction {
	var r extraction
	if traced {
		r.Start = time.Now()
	}
	if obj, err := p.Objects.Get(download.ThumbBucket, key); err == nil {
		r.ThumbResult = ExtractThumb(p.Extractor, obj)
		r.Trace = obj.Meta["trace"]
	}
	if traced {
		r.End = time.Now()
	}
	return r
}

// relocateEvery is how often a streamer's profiles are re-examined: a
// streamer may advertise a new location after moving (§3.1.1), in which
// case the pipeline keeps both — each {streamer, location} pair acts as a
// distinct end-point in analysis.
const relocateEvery = 24 * time.Hour

// locRecord is what the pipeline knows of one pseudonym's location: when it
// last looked the streamer up, and every location found, oldest first, each
// entered when the location changed. Instants are unix seconds.
type locRecord struct {
	tried int64
	hist  []locEntry
}

type locEntry struct {
	at  int64
	loc geo.Location
}

// What the parallel half of LocateStreamers did for one pending streamer.
const (
	lookupKept   = iota // not described (refused, or the lookup failed): stays pending
	lookupRecent        // looked up less than relocateEvery ago: leaves pending, nothing asked
	lookupDone          // described and run through the Locator: leaves pending
)

// LocateStreamers runs the location module for every streamer with pending
// measurements, maintaining a {pseudonym -> location history} and
// forgetting the real ID, and then the country tag of every streamer neither
// live nor pending (Coordinator.ForgetTags). It runs after a drain, with no
// stored thumbnail waiting to be ingested. `now` is the pipeline's virtual
// time.
//
// Descriptions are asked of the API one at a time in sorted-streamer order;
// the first the quota refuses ends the round (refused), and that streamer
// and the rest stay pending, as does one whose lookup failed otherwise. So a
// round describes the same sorted prefix at any Concurrency. The worker pool
// meanwhile runs the described streamers' social lookups and Locator and
// writes nothing; the serial merge then applies every lookup in
// sorted-streamer order.
func (p *Pipeline) LocateStreamers(now time.Time) (located int, refused bool) {
	sp := trace.StartStage("pipeline.locate")
	defer sp.End()
	ids := make([]string, 0, len(p.pending))
	for realID := range p.pending {
		ids = append(ids, realID)
	}
	sort.Strings(ids)

	traced := trace.Enabled()
	type lookup struct {
		anon         string
		state        int
		res          location.Result
		wstart, wend time.Time
	}
	lookups := make([]lookup, len(ids))
	// turn[i] closes once streamer i-1 is past the API, so refused is only
	// touched in turn. The pool is par.Workers(p.Concurrency) — GOMAXPROCS
	// when Concurrency is 0 — capped at 8, although the lookups are I/O-bound.
	turn := make([]chan struct{}, len(ids)+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	close(turn[0])
	par.For("locate", min(par.Workers(p.Concurrency), 8), len(ids), func(i int) {
		l := &lookups[i]
		l.anon = p.Anonymize(ids[i])
		<-turn[i]
		desc := func() string {
			defer close(turn[i+1])
			if refused {
				return ""
			}
			if traced {
				l.wstart = time.Now()
			}
			if rec := p.located[l.anon]; rec != nil && now.Sub(time.Unix(rec.tried, 0)) < relocateEvery {
				l.state = lookupRecent
				return ""
			}
			_, desc, err := p.API.UserDescription(ids[i])
			refused = errors.Is(err, download.ErrRateLimited)
			if err == nil {
				l.state = lookupDone
			}
			return desc
		}()
		if l.state == lookupDone {
			l.res = p.Locator.Locate(p.pending[ids[i]], desc, p.Coordinator.Tag(ids[i]), p.Social)
		}
		if traced {
			l.wend = time.Now()
		}
	})

	at := now.Unix()
	for i, l := range lookups {
		outcome := "pending"
		switch l.state {
		case lookupRecent:
			delete(p.pending, ids[i])
			outcome = "recent"
		case lookupDone:
			delete(p.pending, ids[i]) // §7: the real ID is forgotten once looked up
			p.record(l.anon, at, l.res)
			outcome = "unlocated"
			if l.res.OK {
				located++
				outcome = "located"
			}
		}
		if traced && !l.wstart.IsZero() {
			// Per-streamer child spans under the stage trace, recorded in
			// sorted-streamer order. Only the pseudonym is attached (§7).
			trace.RecordSpan(sp.Context(), "pipeline.locate_one",
				l.wstart, l.wend, "",
				trace.A("streamer", l.anon), trace.A("outcome", outcome))
		}
	}
	p.Coordinator.ForgetTags(func(id string) bool { _, ok := p.pending[id]; return ok })
	mPendingQ.Set(float64(len(p.pending)))
	plog.Debug("location round", "pending", len(ids), "located", located)
	return located, refused
}

// record enters one lookup of the streamer anon, made at unix second at, and
// counts it: Located, or Unlocated the first time only — the "tried,
// unknown" of a streamer never looked up before.
func (p *Pipeline) record(anon string, at int64, res location.Result) {
	rec := p.located[anon]
	if rec == nil {
		rec = &locRecord{}
		p.located[anon] = rec
		if !res.OK {
			p.Unlocated++
			mUnlocated.Inc()
		}
	}
	rec.tried = at
	if !res.OK {
		return
	}
	p.Located++
	mLocated.Inc()
	// Enter the location only if it changed (§3.1.1: occasionally a
	// streamer advertises a new location — keep both). Every stream of the
	// streamer resolves its location through the history that changed.
	if n := len(rec.hist); n == 0 || rec.hist[n-1].loc != res.Loc {
		rec.hist = append(rec.hist, locEntry{at, res.Loc})
		p.moved[anon] = struct{}{}
	}
}

// LocationAt returns the streamer's recorded location as of time t: the
// latest history entry not after t, else the earliest one.
func (p *Pipeline) LocationAt(anonID string, t time.Time) (geo.Location, bool) {
	rec := p.located[anonID]
	if rec == nil || len(rec.hist) == 0 {
		return geo.Location{}, false
	}
	after := sort.Search(len(rec.hist), func(i int) bool { return rec.hist[i].at > t.Unix() })
	return rec.hist[max(after-1, 0)].loc, true
}

// streamGap is the silence that ends a stream: the streamer went offline
// (thumbnails stop) — comfortably above the 5-minute cadence plus jitter
// and skipped thumbnails.
const streamGap = 35 * time.Minute

// pointOf converts a stored measurement into a core.Point. The timestamp
// is AtUnix, parsed once at extraction so the analysis never re-parses
// RFC3339 strings.
func pointOf(m docstore.Measurement) core.Point {
	pt := core.Point{T: time.Unix(m.AtUnix, 0).UTC(), Ms: m.Ms}
	if m.HasAlt {
		pt.Alt, pt.HasAlt = m.Alt, true
	}
	return pt
}

// BuildStreams groups stored measurements into streams (§3.3.1): per
// {streamer, game}, chronologically ordered, split where the measurement
// gap exceeds streamGap, each with the location on record at its first
// point (none for a streamer never located). Measurements are fetched per
// streamer (docstore.Store.Of) rather than by a full-table scan.
func (p *Pipeline) BuildStreams() []core.Stream {
	sp := trace.StartStage("pipeline.build_streams")
	defer sp.End()
	var out []core.Stream
	for _, streamer := range p.Docs.Streamers() {
		out = append(out, p.streamsOf(streamer)...)
	}
	mStreams.Set(float64(len(out)))
	return out
}

// streamsOf builds one streamer's streams, game by game in sorted game
// order and chronological within a game.
func (p *Pipeline) streamsOf(streamer string) []core.Stream {
	byGame := make(map[string][]core.Point)
	for _, m := range p.Docs.Of(streamer) {
		byGame[m.Game] = append(byGame[m.Game], pointOf(m))
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
		streamers = p.Docs.Streamers()
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
	par.For("analyze", par.Workers(p.Concurrency), len(tasks), func(i int) {
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
