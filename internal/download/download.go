// Package download implements Tero's download module (App. A): a
// coordinator that polls the platform API under its rate limit to detect
// streamers going live, and lean downloaders that fetch thumbnails from the
// CDN before they are overwritten. Coordinator and downloaders share state
// exclusively through the key-value store, which also provides crash
// recovery.
//
// Distinct Downloaders may poll concurrently (the pipeline fans them out on
// its worker pool): they coordinate only through the key-value store's
// atomic list/hash operations, and claiming is a single LPop, so a queue
// entry is adopted by exactly one downloader. A single Downloader is not
// safe for concurrent PollOnce calls (it owns its assignment map).
//
// The real CDN is unreliable — requests stall, bodies arrive truncated or
// corrupted, streamers vanish mid-poll — so the fetch path is built to
// degrade gracefully rather than fail-stop: transient errors are retried
// in-place with bounded backoff, a streamer whose fetches keep failing is
// backed off and eventually released back to the shared queue for a peer to
// adopt, downloaders heartbeat through the store, and the coordinator reaps
// claims whose downloader has stopped heartbeating.
package download

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/obs/trace"
)

// Observability: API request/429/retry counters, thumbnail fetch outcome
// counters (downloaded / unchanged / missed / offline), fault-recovery
// counters (fetch retries/failures, releases, reaps, corrupt bodies) and
// poll-cycle latency feed the obs.Default registry.
var (
	dlog = obs.L("download")

	mAPIRequests     = obs.C("download_api_requests_total")
	mAPI429          = obs.C("download_api_429_total")
	mAPIRetries      = obs.C("download_api_retries_total")
	mAPIExhausted    = obs.C("download_api_retry_exhausted_total")
	mThumbDownloads  = obs.C("download_thumbs_total")
	mThumbUnchanged  = obs.C("download_thumb_unchanged_total")
	mThumbMisses     = obs.C("download_thumb_miss_total")
	mOffline         = obs.C("download_offline_total")
	mDownloaderPolls = obs.C("download_poll_cycles_total")
	mCoordPolls      = obs.C("download_coordinator_polls_total")
	mNewlyLive       = obs.C("download_newly_live_total")
	mQueueDepth      = obs.G("download_queue_depth")
	mActive          = obs.G("download_active_streamers")

	mFetchRetries  = obs.C("download_fetch_retries_total")
	mFetchFailures = obs.C("download_fetch_failures_total")
	mCorruptBody   = obs.C("download_body_corrupt_total")
	mBodyOversize  = obs.C("download_body_oversize_total")
	mReleased      = obs.C("download_released_total")
	mReaped        = obs.C("download_reaped_total")
)

// Key-value store layout.
const (
	KeyActive   = "dl:active"  // hash: streamer id -> assignment JSON
	KeyQueue    = "dl:queue"   // list: assignment JSON waiting for a downloader
	KeyOffline  = "dl:offline" // list: streamer ids reported offline
	KeyClaimed  = "dl:claimed" // hash: streamer id -> downloader id
	KeyTags     = "dl:tags"    // hash: streamer id -> country-level tag
	KeyWorkers  = "dl:workers" // hash: downloader id -> last heartbeat (RFC3339)
	ThumbBucket = "thumbs"     // object-store bucket for thumbnails
)

// Assignment describes one streamer a downloader should poll.
type Assignment struct {
	StreamerID string `json:"id"`
	Login      string `json:"login"`
	Game       string `json:"game"`
	URL        string `json:"url"`
}

func (a Assignment) encode() string {
	b, _ := json.Marshal(a)
	return string(b)
}

func decodeAssignment(s string) (Assignment, error) {
	var a Assignment
	err := json.Unmarshal([]byte(s), &a)
	return a, err
}

// APIClient talks to the platform's developer API with 429 handling and
// bounded retries for transient failures (5xx, stalled or reset
// connections).
type APIClient struct {
	Base string
	HTTP *http.Client
	// MaxRetries bounds retries per request (429s, 5xx, transport errors).
	MaxRetries int
	// RetryWait is the base pause after a retryable failure (the coordinator
	// "issues these queries in a way that respects the rate limit").
	// Successive retries back off exponentially from here.
	RetryWait time.Duration
	// MaxRetryWait caps the exponential backoff; 0 means 8×RetryWait.
	MaxRetryWait time.Duration
}

// NewAPIClient returns a client for the platform at base.
func NewAPIClient(base string) *APIClient {
	return &APIClient{
		Base:         strings.TrimRight(base, "/"),
		HTTP:         &http.Client{Timeout: 10 * time.Second},
		MaxRetries:   20,
		RetryWait:    100 * time.Millisecond,
		MaxRetryWait: 800 * time.Millisecond,
	}
}

// retryBackoff returns the pause before retry `attempt` (0-based): an
// exponential backoff from RetryWait capped at MaxRetryWait, with ±50%
// jitter so a fleet of workers released by the same 429 burst does not
// re-stampede the rate limiter in lockstep.
func (c *APIClient) retryBackoff(attempt int) time.Duration {
	base := c.RetryWait
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxRetryWait
	if max <= 0 {
		max = 8 * base
	}
	wait := base
	for i := 0; i < attempt && wait < max; i++ {
		wait *= 2
	}
	if wait > max {
		wait = max
	}
	// Jitter in [wait/2, wait*3/2). math/rand's global source is
	// concurrency-safe; jitter affects only real-time sleeps, never data.
	return wait/2 + time.Duration(rand.Int63n(int64(wait)+1))
}

// streamRow mirrors the platform's Get Streams row.
type streamRow struct {
	UserID       string   `json:"user_id"`
	UserLogin    string   `json:"user_login"`
	GameName     string   `json:"game_name"`
	ThumbnailURL string   `json:"thumbnail_url"`
	Tags         []string `json:"tags"`
}

type streamsPage struct {
	Data       []streamRow `json:"data"`
	Pagination struct {
		Cursor string `json:"cursor"`
	} `json:"pagination"`
}

// getJSON fetches a URL, absorbing transient failures with bounded,
// jittered exponential backoff: 429s (rate limit), 5xx (injected or real
// server faults) and transport errors (stalls that hit the client timeout,
// reset connections) are all retried up to MaxRetries.
func (c *APIClient) getJSON(url string, out any) error {
	retry := func(attempt int, reason string) bool {
		if attempt >= c.MaxRetries {
			mAPIExhausted.Inc()
			dlog.Warn("api retries exhausted", "url", url, "retries", attempt, "reason", reason)
			return false
		}
		wait := c.retryBackoff(attempt)
		mAPIRetries.Inc()
		dlog.Trace("api retry", "reason", reason, "attempt", attempt, "wait", wait)
		time.Sleep(wait)
		return true
	}
	for attempt := 0; ; attempt++ {
		mAPIRequests.Inc()
		resp, err := c.HTTP.Get(url)
		if err != nil {
			if retry(attempt, "transport") {
				continue
			}
			return fmt.Errorf("download: %s: %w", url, err)
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			resp.Body.Close()
			mAPI429.Inc()
			if retry(attempt, "429") {
				continue
			}
			return fmt.Errorf("download: rate limited after %d retries", attempt)
		case resp.StatusCode >= 500:
			resp.Body.Close()
			if retry(attempt, resp.Status) {
				continue
			}
			return fmt.Errorf("download: %s -> %s after %d retries", url, resp.Status, attempt)
		case resp.StatusCode != http.StatusOK:
			resp.Body.Close()
			return fmt.Errorf("download: %s -> %s", url, resp.Status)
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			// A body cut off mid-JSON is a transport fault, not bad data.
			if retry(attempt, "body") {
				continue
			}
		}
		return err
	}
}

// LiveStreams pages through /helix/streams and returns all live rows.
func (c *APIClient) LiveStreams() ([]streamRow, error) {
	var all []streamRow
	cursor := ""
	for {
		url := c.Base + "/helix/streams?first=100"
		if cursor != "" {
			url += "&after=" + cursor
		}
		var page streamsPage
		if err := c.getJSON(url, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Data...)
		if page.Pagination.Cursor == "" {
			break
		}
		cursor = page.Pagination.Cursor
	}
	return all, nil
}

// UserDescription fetches a streamer's profile description.
func (c *APIClient) UserDescription(id string) (login, description string, err error) {
	var resp struct {
		Data []struct {
			ID          string `json:"id"`
			Login       string `json:"login"`
			Description string `json:"description"`
		} `json:"data"`
	}
	if err := c.getJSON(c.Base+"/helix/users?id="+id, &resp); err != nil {
		return "", "", err
	}
	if len(resp.Data) == 0 {
		return "", "", fmt.Errorf("download: user %s not found", id)
	}
	return resp.Data[0].Login, resp.Data[0].Description, nil
}

// Coordinator detects streamers going live and hands their thumbnail URLs
// to downloaders via the key-value store (App. A). It also reaps orphaned
// claims: a streamer claimed by a downloader that stopped heartbeating is
// re-queued so a live peer can adopt it.
type Coordinator struct {
	KV  kvstore.KV
	API *APIClient

	// Reaped counts orphaned claims re-queued.
	Reaped int
}

// NewCoordinator builds a coordinator, recovering active-streamer state
// from the key-value store after a crash.
func NewCoordinator(kv kvstore.KV, api *APIClient) *Coordinator {
	return &Coordinator{KV: kv, API: api}
}

// reapAfter is how far (in virtual time) a downloader's heartbeat may lag
// the newest heartbeat before its claims are declared orphaned.
const reapAfter = 15 * time.Minute

// reapOrphans re-queues streamers claimed by downloaders whose heartbeat
// has fallen reapAfter behind the newest one (a crashed or wedged
// downloader never releases its claims itself). Virtual time is taken from
// the heartbeats, so the coordinator needs no clock of its own.
func (c *Coordinator) reapOrphans() {
	claims := c.KV.HGetAll(KeyClaimed)
	if len(claims) == 0 {
		return
	}
	beats := c.KV.HGetAll(KeyWorkers)
	var newest time.Time
	at := make(map[string]time.Time, len(beats))
	for id, stamp := range beats {
		t, err := time.Parse(time.RFC3339, stamp)
		if err != nil {
			continue
		}
		at[id] = t
		if t.After(newest) {
			newest = t
		}
	}
	if newest.IsZero() {
		return // nobody has ever heartbeat: no basis to call anyone dead
	}
	ids := make([]string, 0, len(claims))
	for id := range claims {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		beat, alive := at[claims[id]]
		if alive && newest.Sub(beat) <= reapAfter {
			continue
		}
		raw, ok := c.KV.HGet(KeyActive, id)
		c.KV.HDel(KeyClaimed, id)
		if ok {
			c.KV.RPush(KeyQueue, raw)
		}
		c.Reaped++
		mReaped.Inc()
		dlog.Warn("reaped orphaned claim", "streamer", id, "downloader", claims[id])
	}
}

// PollOnce queries the API once, enqueues newly live streamers, processes
// offline notices from downloaders, and reaps orphaned claims.
func (c *Coordinator) PollOnce() error {
	mCoordPolls.Inc()
	// Offline notices first: free the streamer for future re-detection.
	for {
		id, ok := c.KV.LPop(KeyOffline)
		if !ok {
			break
		}
		c.KV.HDel(KeyActive, id)
		c.KV.HDel(KeyClaimed, id)
	}
	c.reapOrphans()

	rows, err := c.API.LiveStreams()
	if err != nil {
		dlog.Warn("coordinator poll failed", "err", err)
		return err
	}
	newly := 0
	for _, row := range rows {
		if _, active := c.KV.HGet(KeyActive, row.UserID); active {
			continue
		}
		a := Assignment{
			StreamerID: row.UserID,
			Login:      row.UserLogin,
			Game:       row.GameName,
			URL:        row.ThumbnailURL,
		}
		c.KV.HSet(KeyActive, row.UserID, a.encode())
		c.KV.RPush(KeyQueue, a.encode())
		// Country-level tags feed the location module's tag recovery
		// (App. D.2).
		if len(row.Tags) > 0 {
			c.KV.HSet(KeyTags, row.UserID, row.Tags[0])
		}
		newly++
	}
	mNewlyLive.Add(int64(newly))
	mQueueDepth.Set(float64(c.KV.LLen(KeyQueue)))
	mActive.Set(float64(len(c.KV.HGetAll(KeyActive))))
	if newly > 0 {
		dlog.Debug("coordinator poll", "live_rows", len(rows), "newly_live", newly)
	}
	return nil
}

// ClaimMode selects how a downloader adopts queued streamers in PollOnce.
type ClaimMode int

const (
	// ClaimIdleOne claims one assignment per idle poll — the idle-based
	// load balancing of App. A and the default.
	ClaimIdleOne ClaimMode = iota
	// ClaimAll drains the whole queue every poll, whether or not the
	// downloader had due work. This pins WHICH TICK every streamer is
	// adopted independently of fleet size — the determinism discipline the
	// distributed topology's golden runs rely on.
	ClaimAll
	// ClaimNone never claims from PollOnce; an external scheduler (a
	// distributed worker balancing a claim quota across its fleet) calls
	// AdoptOne explicitly.
	ClaimNone
)

// Downloader fetches thumbnails for its assigned streamers. It is
// deliberately lean: all state handling beyond plain downloading lives in
// the coordinator and the key-value store.
type Downloader struct {
	ID    string
	KV    kvstore.KV
	Store objstore.API
	HTTP  *http.Client

	// Claim selects the queue-adoption policy of PollOnce.
	Claim ClaimMode

	// WindowStamp, when true, stamps stored thumbnails with the CDN's
	// X-Thumbnail-At header (the instant the thumbnail window opened)
	// instead of the local virtual fetch time. Window time is a property of
	// the data, not of who fetched it when — so runs that re-fetch after a
	// worker crash, or fetch from a differently-shaped fleet, produce
	// byte-identical measurement documents.
	WindowStamp bool

	// ClaimTraceKey, when set (and tracing is enabled), records a W3C
	// traceparent for every claim this downloader takes into that kv hash
	// (field = streamer ID). A coordinator reaping the claim after a
	// worker crash chains its reap span onto this context, so the claim's
	// story is one trace even across processes.
	ClaimTraceKey string

	// MaxFetchRetries bounds the in-place retries of one fetch cycle
	// against transient CDN faults (5xx, stalls, resets, truncated or
	// corrupted bodies, missing headers).
	MaxFetchRetries int
	// RetryWait is the real-time base pause between in-place retries.
	RetryWait time.Duration
	// MaxStrikes is how many consecutive failed fetch cycles a streamer
	// survives before the downloader gives up and releases it back to the
	// queue for a peer to adopt.
	MaxStrikes int

	assigned map[string]*tracked
	stored   []string // see Stored

	// Downloads and Misses count fetched and lost thumbnails; Retries and
	// Released count in-place fetch retries and streamers given up on.
	Downloads, Misses int
	Retries, Released int
}

type tracked struct {
	a       Assignment
	next    time.Time // when the next thumbnail becomes available
	lastSeq string
	strikes int // consecutive failed fetch cycles
}

// NewDownloader builds a downloader. The HTTP client must not follow
// redirects: a redirect to the offline thumbnail is the going-offline
// signal.
func NewDownloader(id string, kv kvstore.KV, store objstore.API) *Downloader {
	return &Downloader{
		ID: id, KV: kv, Store: store,
		HTTP: &http.Client{
			Timeout: 10 * time.Second,
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
		MaxFetchRetries: 8,
		RetryWait:       25 * time.Millisecond,
		MaxStrikes:      3,
		assigned:        make(map[string]*tracked),
	}
}

// Assigned returns the number of streamers this downloader polls.
func (d *Downloader) Assigned() int { return len(d.assigned) }

// Stored returns the ThumbBucket keys this downloader has Put since its last
// PollOnce began (that poll's and any AdoptOne after it), in Put order; a key
// stored twice appears twice. The slice is reused by the next PollOnce.
func (d *Downloader) Stored() []string { return d.stored }

// strikeBackoff is the virtual-time pause before re-trying a streamer whose
// whole fetch cycle failed: 30s doubling per strike, capped at 4 minutes so
// a recovering streamer is re-polled within one thumbnail window.
func strikeBackoff(strikes int) time.Duration {
	wait := 30 * time.Second
	for i := 1; i < strikes && wait < 4*time.Minute; i++ {
		wait *= 2
	}
	if wait > 4*time.Minute {
		wait = 4 * time.Minute
	}
	return wait
}

// fail records a failed fetch cycle for one streamer: back the streamer off
// in virtual time, and after MaxStrikes consecutive failures release it —
// drop the claim and re-queue the assignment so a healthier peer adopts it.
func (d *Downloader) fail(id string, tr *tracked, now time.Time, err error) {
	tr.strikes++
	mFetchFailures.Inc()
	max := d.MaxStrikes
	if max <= 0 {
		max = 3
	}
	if tr.strikes >= max {
		delete(d.assigned, id)
		d.KV.HDel(KeyClaimed, id)
		d.KV.RPush(KeyQueue, tr.a.encode())
		d.Released++
		mReleased.Inc()
		dlog.Warn("giving up on streamer, releasing to queue",
			"downloader", d.ID, "streamer", id, "strikes", tr.strikes, "err", err)
		return
	}
	tr.next = now.Add(strikeBackoff(tr.strikes))
	dlog.Debug("fetch cycle failed, backing off",
		"downloader", d.ID, "streamer", id, "strikes", tr.strikes,
		"retry_at", tr.next.Format(time.RFC3339), "err", err)
}

// PollOnce processes all due assignments at virtual time now, then — if
// idle — claims new streamers from the queue (the idle-based load balancing
// of App. A).
//
// Errors are isolated per assignment: one failing streamer cannot starve
// its peers or abort the cycle. Each failure backs off (or releases) that
// streamer alone; the joined error of every failed assignment is returned,
// in streamer-ID order, for the caller's logs.
func (d *Downloader) PollOnce(now time.Time) error {
	mDownloaderPolls.Inc()
	d.stored = d.stored[:0]
	// Heartbeat (virtual time): the coordinator reaps claims of downloaders
	// whose heartbeats stop.
	d.KV.HSet(KeyWorkers, d.ID, now.UTC().Format(time.RFC3339))
	ids := make([]string, 0, len(d.assigned))
	for id := range d.assigned {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var errs []error
	due := 0
	for _, id := range ids {
		tr := d.assigned[id]
		if tr.next.After(now) {
			continue
		}
		due++
		if err := d.fetch(id, tr, now); err != nil {
			d.fail(id, tr, now, err)
			errs = append(errs, fmt.Errorf("streamer %s: %w", id, err))
			continue
		}
		tr.strikes = 0
	}
	switch d.Claim {
	case ClaimNone:
		// Claims are driven externally via AdoptOne.
	case ClaimAll:
		for {
			_, adopted, err := d.AdoptOne(now)
			if err != nil {
				errs = append(errs, err)
			}
			if !adopted {
				break
			}
		}
	default: // ClaimIdleOne
		if due == 0 {
			// Idle: adopt one new streamer (claiming one at a time keeps the
			// fleet balanced — a single fast downloader cannot drain the whole
			// queue before its peers get a chance).
			if _, _, err := d.AdoptOne(now); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// AdoptOne claims the next queued assignment (if any) and immediately runs
// its first fetch cycle at virtual time now. It reports whether a queue
// entry was consumed; a fetch failure is handled with the usual
// backoff/release discipline and returned for the caller's logs.
func (d *Downloader) AdoptOne(now time.Time) (Assignment, bool, error) {
	raw, ok := d.KV.LPop(KeyQueue)
	if !ok {
		return Assignment{}, false, nil
	}
	a, err := decodeAssignment(raw)
	if err != nil {
		// A corrupt queue entry is consumed (so it cannot wedge the queue)
		// but never claimed.
		return Assignment{}, true, nil
	}
	d.KV.HSet(KeyClaimed, a.StreamerID, d.ID)
	if d.ClaimTraceKey != "" && trace.Enabled() {
		// The claim's own micro-trace: its traceparent lands next to the
		// claim record so a remote reaper can chain onto it.
		sp := trace.StartTrace("download.claim",
			trace.A("streamer", a.StreamerID), trace.A("downloader", d.ID))
		d.KV.HSet(d.ClaimTraceKey, a.StreamerID, trace.Traceparent(sp.Context()))
		sp.End()
	}
	tr := &tracked{a: a}
	d.assigned[a.StreamerID] = tr
	if err := d.fetch(a.StreamerID, tr, now); err != nil {
		d.fail(a.StreamerID, tr, now, err)
		return a, true, fmt.Errorf("streamer %s: %w", a.StreamerID, err)
	}
	tr.strikes = 0
	return a, true, nil
}

// retryable wraps transient fetch errors worth an in-place retry.
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

func transient(format string, args ...any) error {
	return retryableError{fmt.Errorf(format, args...)}
}

// retryPause is the real-time pause before in-place retry number attempt
// (from 1): base, doubled per attempt up to 16×base. A base ≤ 0 counts as
// 25 ms for the start and the cap alike.
func retryPause(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	wait := base
	for i := 1; i < attempt && wait < 16*base; i++ {
		wait *= 2
	}
	return wait
}

// fetch runs one fetch cycle for a streamer, retrying transient failures
// (5xx, transport errors, truncated/corrupt bodies, missing headers) in
// place with bounded real-time backoff. The virtual clock does not advance
// during retries, so a recovered fetch lands in the same thumbnail window
// as an unfaulted one.
func (d *Downloader) fetch(id string, tr *tracked, now time.Time) error {
	retries := d.MaxFetchRetries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			d.Retries++
			mFetchRetries.Inc()
			time.Sleep(retryPause(d.RetryWait, attempt))
		}
		err := d.fetchOnce(id, tr, now)
		if err == nil {
			return nil
		}
		var re retryableError
		if !errors.As(err, &re) {
			return err
		}
		lastErr = err
		dlog.Trace("transient fetch error", "downloader", d.ID,
			"streamer", id, "attempt", attempt, "err", err)
	}
	return lastErr
}

// offline handles the going-offline signal: drop the assignment and notify
// the coordinator. Used identically by the HEAD and GET paths.
func (d *Downloader) offline(id string, verb string) {
	delete(d.assigned, id)
	d.KV.RPush(KeyOffline, id)
	mOffline.Inc()
	dlog.Debug("streamer offline", "downloader", d.ID, "streamer", id, "verb", verb)
}

// maxThumbBytes bounds one thumbnail body: far above the 57.6 KB a thumbnail
// weighs and below DecodePGM's own 64 Mi-pixel bound, so neither a CDN that
// declares a huge Content-Length nor one that streams without end sizes the
// downloader's heap.
const maxThumbBytes = 8 << 20

var errBodyOversize = fmt.Errorf("body larger than %d bytes", maxThumbBytes)

// readBody reads a response body into one fresh slice: exactly the declared
// Content-Length when there is one (a body that ends short of it is
// io.ErrUnexpectedEOF), growing under maxThumbBytes when there is none. The
// object store keeps the slice it is handed, so a body is never reused.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxThumbBytes {
		return nil, errBodyOversize
	}
	if resp.ContentLength >= 0 {
		body := make([]byte, resp.ContentLength)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxThumbBytes+1))
	if err == nil && len(body) > maxThumbBytes {
		err = errBodyOversize
	}
	return body, err
}

// fetchOnce HEADs the thumbnail URL, downloads a new thumbnail if one
// appeared, and handles the offline redirect. Transient failures are
// returned as retryableError for fetch's retry loop.
func (d *Downloader) fetchOnce(id string, tr *tracked, now time.Time) error {
	req, err := http.NewRequest(http.MethodHead, tr.a.URL, nil)
	if err != nil {
		return err
	}
	resp, err := d.HTTP.Do(req)
	if err != nil {
		return transient("HEAD %s: %w", tr.a.URL, err)
	}
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusFound:
		d.offline(id, "HEAD")
		return nil
	case resp.StatusCode >= 500:
		return transient("HEAD %s -> %s", tr.a.URL, resp.Status)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("download: HEAD %s -> %s", tr.a.URL, resp.Status)
	}
	if next, err := time.Parse(time.RFC3339, resp.Header.Get("X-Next-Thumbnail")); err == nil {
		tr.next = next
	} else {
		// The scheduling header is load-bearing: without it the next poll
		// would drift off the thumbnail cadence. Retry; only if the CDN
		// never sends it fall back to the nominal 5-minute cadence.
		tr.next = now.Add(5 * time.Minute)
		return transient("HEAD %s: missing X-Next-Thumbnail", tr.a.URL)
	}
	// A missing HEAD seq is harmless: the GET response carries the
	// authoritative one, and the unchanged check below de-duplicates.
	if seq := resp.Header.Get("X-Thumbnail-Seq"); seq != "" && seq == tr.lastSeq {
		// Refresh hit: the CDN still serves the thumbnail we already have.
		mThumbUnchanged.Inc()
		return nil
	}
	// GET the thumbnail body. This is where a reading's journey trace is
	// born: the root span covers CDN fetch to object-store put, and its
	// context rides the object metadata so the pipeline's extract span
	// (and everything downstream to publish) joins the same trace.
	j := trace.StartJourney("download.fetch",
		trace.A("streamer", id), trace.A("downloader", d.ID))
	fetchFail := func(err error) error {
		j.SetError(err.Error())
		j.End()
		trace.Finish(j.Context().TraceID)
		return err
	}
	getResp, err := d.HTTP.Get(tr.a.URL)
	if err != nil {
		return fetchFail(transient("GET %s: %w", tr.a.URL, err))
	}
	defer getResp.Body.Close()
	switch {
	case getResp.StatusCode == http.StatusFound:
		// Went offline between HEAD and GET: same bookkeeping as the HEAD
		// path — the streamer is dropped and reported, never half-tracked.
		d.offline(id, "GET")
		j.SetAttr("outcome", "offline")
		j.End()
		trace.Finish(j.Context().TraceID)
		return nil
	case getResp.StatusCode >= 500:
		return fetchFail(transient("GET %s -> %s", tr.a.URL, getResp.Status))
	case getResp.StatusCode != http.StatusOK:
		return fetchFail(fmt.Errorf("download: GET %s -> %s", tr.a.URL, getResp.Status))
	}
	// The seq must come from the GET response: the thumbnail may rotate
	// between HEAD and GET, and keying the stored bytes by the HEAD seq
	// would make the object key, metadata and miss accounting disagree
	// with the body actually stored.
	seq := getResp.Header.Get("X-Thumbnail-Seq")
	if seq == "" {
		return fetchFail(transient("GET %s: missing X-Thumbnail-Seq", tr.a.URL))
	}
	if seq == tr.lastSeq {
		// Already have this one (e.g. the HEAD seq header was dropped):
		// do not re-store it — a rewrite would re-stamp its download time.
		mThumbUnchanged.Inc()
		j.SetAttr("outcome", "unchanged")
		j.End()
		trace.Finish(j.Context().TraceID)
		return nil
	}
	body, err := readBody(getResp)
	if errors.Is(err, errBodyOversize) {
		// Not transient: a retry would be offered the same body. The cycle
		// fails and the streamer takes a strike.
		mBodyOversize.Inc()
		return fetchFail(fmt.Errorf("download: GET %s: %w", tr.a.URL, err))
	}
	if err != nil {
		// Truncated mid-body (short of Content-Length → unexpected EOF).
		return fetchFail(transient("GET %s: %w", tr.a.URL, err))
	}
	if want := getResp.Header.Get("X-Thumbnail-Digest"); want != "" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			mCorruptBody.Inc()
			return fetchFail(transient("GET %s: body digest mismatch", tr.a.URL))
		}
	}
	if tr.lastSeq != "" {
		if prev, cur, ok := seqGap(tr.lastSeq, seq); ok {
			// Clamp to ≥0: a seq that moves backwards (simulator restart,
			// CDN rollback) is a reset, not a negative number of misses.
			if gap := cur - prev - 1; gap > 0 {
				d.Misses += gap
				mThumbMisses.Add(int64(gap))
				dlog.Debug("thumbnail window missed", "downloader", d.ID,
					"streamer", id, "skipped", gap)
			} else if cur < prev {
				dlog.Debug("thumbnail seq reset", "downloader", d.ID,
					"streamer", id, "prev", prev, "cur", cur)
			}
		}
	}
	tr.lastSeq = seq
	key := fmt.Sprintf("%s/%s.pgm", id, seq)
	at := now.UTC().Format(time.RFC3339)
	if d.WindowStamp {
		// Stamp with the window-open time the CDN reports: a property of
		// the thumbnail itself, identical no matter which downloader
		// fetched it or when within the window (see the field's doc).
		if t, err := time.Parse(time.RFC3339, getResp.Header.Get("X-Thumbnail-At")); err == nil {
			at = t.UTC().Format(time.RFC3339)
		}
	}
	meta := map[string]string{
		"streamer": id,
		"login":    tr.a.Login,
		"game":     tr.a.Game,
		"seq":      seq,
		"at":       at,
	}
	j.SetAttr("key", key)
	j.SetAttr("seq", seq)
	if tc := trace.Traceparent(j.Context()); tc != "" {
		meta["trace"] = tc
	}
	d.Store.Put(ThumbBucket, key, body, meta) // the store's from here on: neither is touched again
	d.stored = append(d.stored, key)
	d.Downloads++
	mThumbDownloads.Inc()
	// End records the root span; the journey stays open in the store until
	// the pipeline publishes (or never does — then MaxPending evicts it).
	j.End()
	return nil
}

func seqGap(prev, cur string) (p, c int, ok bool) {
	p, err1 := strconv.Atoi(prev)
	c, err2 := strconv.Atoi(cur)
	return p, c, err1 == nil && err2 == nil
}
