package dist

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"tero/internal/download"
	"tero/internal/imageproc"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
)

var (
	mWRounds  = obs.C("dist_worker_rounds_total")
	mWClaims  = obs.C("dist_worker_claims_total")
	mWExtract = obs.C("dist_worker_extracts_total")
)

// WorkerConfig configures one ingest worker (the teroworker binary, or an
// in-process equivalent in tests and single-binary experiment legs).
type WorkerConfig struct {
	// ID names the worker; its downloader is "<ID>:dl0", the prefix the
	// coordinator uses to find a dead worker's claims.
	ID string
	// StoreAddr is the kvstore server (with attached object buckets) all
	// coordination, results and quarantined thumbnails go through.
	StoreAddr string
	// BeatEvery is the real-time heartbeat cadence (default 25ms).
	BeatEvery time.Duration
	// Halt, when closed, makes the worker stop dead wherever it is — no
	// deregistration, no goodbye, heartbeats cease. The in-process crash
	// the worker-crash tests use; SIGKILL is the cross-process form.
	Halt <-chan struct{}
}

const (
	// pollWait is the pause between a worker's round-token polls.
	pollWait = 500 * time.Microsecond
	// startTimeout bounds a worker's wait for the coordinator's platform
	// announcement.
	startTimeout = 30 * time.Second
)

// RunWorker joins the fleet at cfg.StoreAddr and works rounds until the
// coordinator publishes the done sentinel (clean exit) or cfg.Halt closes
// (simulated crash). See the package comment for the protocol.
func RunWorker(cfg WorkerConfig) error {
	if cfg.BeatEvery <= 0 {
		cfg.BeatEvery = 25 * time.Millisecond
	}
	halted := func() bool {
		select {
		case <-cfg.Halt:
			return true
		default:
			return false
		}
	}

	kv, err := kvstore.DialStore(cfg.StoreAddr)
	if err != nil {
		return fmt.Errorf("dist worker %s: dial store: %w", cfg.ID, err)
	}
	defer kv.Close()
	objects, err := kvstore.DialObjects(cfg.StoreAddr)
	if err != nil {
		return fmt.Errorf("dist worker %s: dial objects: %w", cfg.ID, err)
	}
	defer objects.Close()

	// Heartbeats get their own connection so a large object frame on the
	// main one can never delay a beat past the coordinator's deadline.
	beatKV, err := kvstore.DialStore(cfg.StoreAddr)
	if err != nil {
		return fmt.Errorf("dist worker %s: dial beat: %w", cfg.ID, err)
	}
	beat := func() { beatKV.HSet(KeyBeat, cfg.ID, strconv.FormatInt(time.Now().UnixNano(), 10)) }
	beatStop := make(chan struct{})
	beatExit := make(chan struct{})
	// First beat lands before the roster entry: the coordinator must never
	// see a registered worker without a liveness record.
	beat()
	kv.HSet(KeyWorkers, cfg.ID, "1")
	go func() {
		defer close(beatExit)
		defer beatKV.Close()
		t := time.NewTicker(cfg.BeatEvery)
		defer t.Stop()
		for {
			select {
			case <-beatStop:
				return
			case <-cfg.Halt:
				return
			case <-t.C:
				beat()
			}
		}
	}()
	// Every return below stops the beats: a worker that has given up must
	// look dead to the coordinator, which then reaps and requeues its
	// claims, and an in-process fleet must not keep the goroutine. The clean
	// exit also stops them itself, before it deletes its liveness record.
	var stopOnce sync.Once
	stopBeats := func() { stopOnce.Do(func() { close(beatStop) }); <-beatExit }
	defer stopBeats()

	// Wait for the run to start. The assignments carry absolute URLs, so the
	// announced platform URL is only the start signal.
	deadline := time.Now().Add(startTimeout)
	for {
		if halted() {
			return nil
		}
		if _, ok := kv.Get(KeyPlatform); ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist worker %s: no platform announced within %s", cfg.ID, startTimeout)
		}
		time.Sleep(pollWait)
	}

	// Thumbnails never leave the process: the downloader stores into a
	// local bucket that workRound drains, so a thumbnail costs the wire one
	// result frame (plus the quarantine copy of a corrupt one). One
	// downloader per worker: a round polls and extracts serially, so a
	// second would only spread the same claims over two owner IDs.
	local := objstore.New()
	extractor := imageproc.New()
	d := download.NewDownloader(cfg.ID+":dl0", kv, local)
	d.Claim = download.ClaimNone
	// Window-stamped metadata is what makes a re-fetch after a crash, and a
	// fleet of any shape, store the bytes a single process would have.
	d.WindowStamp = true
	d.ClaimTraceKey = KeyClaimTrace

	dlog.Info("worker joined", "id", cfg.ID, "store", cfg.StoreAddr)

	stats := WorkerStats{Worker: cfg.ID}
	last := ""
	for {
		if halted() {
			return nil
		}
		token, ok := kv.Get(KeyRound)
		if !ok || token == last {
			time.Sleep(pollWait)
			continue
		}
		if token == RoundDone {
			stopBeats()
			kv.HDel(KeyWorkers, cfg.ID)
			kv.HDel(KeyBeat, cfg.ID)
			dlog.Info("worker done", "id", cfg.ID, "rounds", stats.Rounds,
				"claims", stats.Claims, "extracted", stats.Extracted)
			return nil
		}
		nowStr, _ := kv.Get(KeyNow)
		now, err := time.Parse(time.RFC3339Nano, nowStr)
		if err != nil {
			return fmt.Errorf("dist worker %s: bad %s %q: %w", cfg.ID, KeyNow, nowStr, err)
		}
		if err := workRound(cfg.ID, kv, objects, local, extractor, d, now, &stats, halted); err != nil {
			return err // not checked in: the coordinator reaps this worker's claims
		}
		if halted() {
			return nil // died before checking in: the round stays incomplete
		}
		stats.Rounds++
		mWRounds.Inc()
		kv.HSet(KeyStats, cfg.ID, stats.Encode())
		kv.HSet(KeyDone, cfg.ID, token)
		last = token
	}
}

// resultSink is where a round's results and quarantined thumbnails go: the
// coordinator's object store, through kvstore.RemoteObjects.
type resultSink interface {
	Put(bucket, key string, data []byte, meta map[string]string) (etag string, err error)
}

// workRound does one round at the frozen virtual instant now: service due
// fetches, claim a fair quota from the queue, extract everything fetched
// into local and push the results to objects. Repeat rounds at the same
// instant are harmless — due times are virtual, so nothing comes due twice.
//
// A push that fails ends the round with its error and the thumbnail still
// in local: the reading has not reached the coordinator, so the round must
// not be checked in as done.
func workRound(id string, kv kvstore.KV, objects resultSink, local *objstore.Store,
	extractor *imageproc.Extractor, d *download.Downloader,
	now time.Time, stats *WorkerStats, halted func() bool) error {
	if err := d.PollOnce(now); err != nil {
		// Degraded, not fatal: the downloader has already applied its
		// per-streamer backoff/release recovery.
		dlog.Warn("poll errors", "worker", id, "err", err)
	}

	// Balanced claims: adopt while this worker owns fewer streamers than
	// its ceil-share of everything claimable (already-claimed + queued).
	// The per-round critical path is the busiest worker's fetch count, so
	// ownership balance — not just queue fair-share — is what lets a fleet
	// overlap CDN latency. Workers race LPOP on slightly stale counts, but
	// the capacity sum (alive x ceil-share - claimed) always covers the
	// queue, so it still drains within the round; makeup rounds are the
	// backstop. Reads are racy by a claim or two, which skews balance by
	// at most that much.
	qlen := kv.LLen(download.KeyQueue)
	alive := len(kv.HGetAll(KeyWorkers))
	if alive < 1 {
		alive = 1
	}
	claimed := len(kv.HGetAll(download.KeyClaimed))
	target := (claimed + qlen + alive - 1) / alive
	for own := d.Assigned(); own < target; own++ {
		if halted() {
			return nil
		}
		_, adopted, err := d.AdoptOne(now)
		if !adopted {
			break
		}
		stats.Claims++
		mWClaims.Inc()
		if err != nil {
			dlog.Warn("adopt fetch failed", "worker", id, "err", err)
		}
	}

	// Extract everything fetched this round and push the results. Results
	// are keyed by thumbnail key: a re-fetch after a crash overwrites with
	// identical bytes instead of duplicating.
	for _, key := range local.List(download.ThumbBucket, "") {
		if halted() {
			return nil
		}
		obj, err := local.Get(download.ThumbBucket, key)
		if err != nil {
			continue
		}
		wstart := time.Now()
		res := pipeline.ExtractThumb(extractor, obj)
		wend := time.Now()
		jctx, _ := trace.ParseTraceparent(obj.Meta["trace"])
		errMsg := ""
		if res.Outcome == pipeline.OutcomeCorrupt {
			errMsg = "corrupt thumbnail: pgm decode failed"
		}
		ec := trace.RecordSpan(jctx, "dist.extract", wstart, wend, errMsg,
			trace.A("worker", id), trace.A("outcome", res.Outcome))
		r := Result{
			Key: key, Outcome: res.Outcome,
			Ms: res.Ms, Alt: res.Alt, HasAlt: res.HasAlt,
			Streamer: res.Streamer, Login: res.Login, Game: res.Game,
			At: res.At, AtUnix: res.AtUnix, AtOK: res.AtOK,
			Traceparent: trace.Traceparent(ec), Worker: id,
		}
		if res.Outcome == pipeline.OutcomeCorrupt {
			// Quarantine worker-side so the move happens exactly once, by
			// whoever decoded it; the coordinator only counts it.
			if _, err := objects.Put(pipeline.QuarantineBucket, key, obj.Data, obj.Meta); err != nil {
				return fmt.Errorf("dist worker %s: quarantine %s: %w", id, key, err)
			}
			dlog.Warn("quarantined corrupt thumbnail", "worker", id, "key", key)
		}
		if res.Outcome == pipeline.OutcomeMeasured {
			stats.Extracted++
			mWExtract.Inc()
		} else {
			// The reading's journey dies at extraction; measured readings
			// stay open until the coordinator publishes them.
			trace.Finish(jctx.TraceID)
		}
		if _, err := objects.Put(ResultBucket, key, r.Encode(), nil); err != nil {
			return fmt.Errorf("dist worker %s: push result %s: %w", id, key, err)
		}
		// §7: the thumbnail is freight, not data — gone once extracted.
		local.Delete(download.ThumbBucket, key) //nolint:errcheck // just listed; only this goroutine deletes
	}
	stats.Fetches = d.Downloads
	return nil
}
