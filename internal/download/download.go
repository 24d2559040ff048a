// Package download implements Tero's download module (App. A): a
// coordinator that polls the platform API under its rate limit to detect
// streamers going live, and lean downloaders that fetch thumbnails from the
// CDN before they are overwritten. Coordinator and downloaders share state
// exclusively through the key-value store, which also provides crash
// recovery.
//
// Distinct Downloaders may poll concurrently (the pipeline fans them out on
// its worker pool): they coordinate only through the key-value store. They
// adopt queued streamers in one serial step per tick, Deal, which tops each
// downloader up to a ceil-share of everything claimable; a claim is a single
// LPop, so a queue entry is adopted by exactly one downloader even when
// fleet workers deal concurrently. A single Downloader is not safe for
// concurrent calls (it owns its assignment map).
//
// The real CDN is unreliable — requests stall, bodies arrive truncated or
// corrupted, streamers vanish mid-poll — so the fetch path is built to
// degrade gracefully rather than fail-stop: transient errors are retried
// in-place with bounded backoff, a streamer whose fetches keep failing is
// backed off and eventually released back to the shared queue for a peer to
// adopt. A downloader that dies keeps its claims until something that
// outlives it requeues them: in a single process nothing does, since the
// coordinator dies with it; in a fleet, the dist coordinator's barrier
// declares the worker dead and requeues its claims.
package download

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// counters (fetch retries/failures, releases, corrupt bodies) and
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
)

// Key-value store layout.
const (
	KeyActive   = "dl:active"  // hash: streamer id -> assignment JSON
	KeyQueue    = "dl:queue"   // list: assignment JSON waiting for a downloader
	KeyOffline  = "dl:offline" // list: streamer ids reported offline
	KeyClaimed  = "dl:claimed" // hash: streamer id -> downloader id
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

// ErrRateLimited marks a request the API quota refused (429). It is not
// retried: the quota refills on the platform's clock, so the caller asks
// again after that clock has moved (App. A: "respects the rate limit").
var ErrRateLimited = errors.New("rate limited")

// APIClient talks to the platform's developer API: a 429 comes back as
// ErrRateLimited after the one request, and transient failures (5xx,
// stalled or reset connections, cut bodies) get bounded retries.
type APIClient struct {
	Base string
	HTTP *http.Client
	// MaxRetries bounds retries per request of a transient failure.
	MaxRetries int
	// RetryWait is the base real-time pause after a transient failure.
	// Successive retries back off as a downloader's do (retryPause).
	RetryWait time.Duration
}

// NewAPIClient returns a client for the platform at base.
func NewAPIClient(base string) *APIClient {
	return &APIClient{
		Base:       strings.TrimRight(base, "/"),
		HTTP:       &http.Client{Timeout: 10 * time.Second},
		MaxRetries: 20,
		RetryWait:  100 * time.Millisecond,
	}
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

// getJSON fetches a URL, retrying transient failures — 5xx (injected or
// real server faults), transport errors (stalls, resets), cut bodies — up
// to MaxRetries with the downloader's bounded backoff (retryPause). A 429
// returns ErrRateLimited at once.
func (c *APIClient) getJSON(url string, out any) error {
	retry := func(attempt int, reason string) bool {
		if attempt >= c.MaxRetries {
			mAPIExhausted.Inc()
			dlog.Warn("api retries exhausted", "url", url, "retries", attempt, "reason", reason)
			return false
		}
		wait := retryPause(c.RetryWait, attempt+1)
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
			return fmt.Errorf("download: %s: %w", url, ErrRateLimited)
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
// to downloaders via the key-value store (App. A).
type Coordinator struct {
	KV  kvstore.KV
	API *APIClient

	// tags holds, by streamer id, the first country-level tag of the
	// streamer's latest go-live that had one, for the location module's tag
	// recovery (App. D.2). It is the coordinator's own: no downloader reads
	// it. ForgetTags keeps it to the streamers that are live or have a
	// lookup pending.
	tags map[string]string
}

// NewCoordinator builds a coordinator that shares its queue through kv and
// polls the platform through api.
func NewCoordinator(kv kvstore.KV, api *APIClient) *Coordinator {
	return &Coordinator{KV: kv, API: api, tags: make(map[string]string)}
}

// Tag returns the country-level tag the streamer id last went live with,
// or "" if it never had one or it was forgotten. It must not run during a
// PollOnce.
func (c *Coordinator) Tag(id string) string { return c.tags[id] }

// ForgetTags drops the tag of every streamer that is not live and for which
// pending reports no location lookup outstanding: after it, the tag table
// holds only real IDs that the active hash or the pending lookups hold too
// (§7). Call it where no stored thumbnail waits to be ingested, so that a
// streamer whose tag it drops needs one again only after a new go-live,
// which sets it. It must not run during a PollOnce.
func (c *Coordinator) ForgetTags(pending func(id string) bool) {
	var idle []string
	for id := range c.tags {
		if !pending(id) {
			idle = append(idle, id)
		}
	}
	if len(idle) == 0 {
		return
	}
	active := c.KV.HGetAll(KeyActive)
	for _, id := range idle {
		if _, live := active[id]; !live {
			delete(c.tags, id)
		}
	}
}

// PollOnce queries the API once, enqueues newly live streamers and
// processes offline notices from downloaders. A refused
// page fails it (ErrRateLimited); the next poll pages again.
//
// The coordinator is the active hash's one writer, so after the offline
// notices one HGETALL reads what is active, and each HSET is mirrored into
// that snapshot: it answers whether a row is active (a row repeated across
// pages included) and is the gauge's count.
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

	rows, err := c.API.LiveStreams()
	if err != nil {
		dlog.Warn("coordinator poll failed", "err", err)
		return err
	}
	active := c.KV.HGetAll(KeyActive)
	newly := 0
	for _, row := range rows {
		if _, ok := active[row.UserID]; ok {
			continue
		}
		a := Assignment{
			StreamerID: row.UserID,
			Login:      row.UserLogin,
			Game:       row.GameName,
			URL:        row.ThumbnailURL,
		}
		enc := a.encode()
		c.KV.HSet(KeyActive, row.UserID, enc)
		active[row.UserID] = enc
		c.KV.RPush(KeyQueue, enc)
		if len(row.Tags) > 0 {
			c.tags[row.UserID] = row.Tags[0]
		}
		newly++
	}
	mNewlyLive.Add(int64(newly))
	mQueueDepth.Set(float64(c.KV.LLen(KeyQueue)))
	mActive.Set(float64(len(active)))
	if newly > 0 {
		dlog.Debug("coordinator poll", "live_rows", len(rows), "newly_live", newly)
	}
	return nil
}

// Deprecated: nothing reads a ClaimMode; every downloader adopts through Deal.
type ClaimMode int

// Deprecated: ignored, like every ClaimMode.
const ClaimAll ClaimMode = 1

// Downloader fetches thumbnails for its assigned streamers. It is
// deliberately lean: all state handling beyond plain downloading lives in
// the coordinator and the key-value store.
type Downloader struct {
	ID    string
	KV    kvstore.KV
	Store objstore.API
	HTTP  *http.Client

	// Deprecated: not read; Deal is the one adoption policy.
	Claim ClaimMode

	// ClaimTraceKey, when set (and tracing is enabled), records a W3C
	// traceparent for every claim this downloader takes into that kv hash
	// (field = streamer ID). A coordinator reaping the claim after a
	// worker crash chains its reap span onto this context, so the claim's
	// story is one trace even across processes.
	ClaimTraceKey string

	// RetryWait is the real-time base pause between in-place retries.
	RetryWait time.Duration

	assigned map[string]*tracked
	claimed  []*tracked // what Deal claimed that FetchClaimed has not fetched yet
	stored   []string   // see Stored

	// Downloads and Misses count fetched and lost thumbnails; Retries and
	// Released count in-place fetch retries and streamers given up on;
	// Claims counts queue entries Deal claimed for this downloader.
	Downloads, Misses int
	Retries, Released int
	Claims            int
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
		RetryWait: 25 * time.Millisecond,
		assigned:  make(map[string]*tracked),
	}
}

// Assigned returns the number of streamers this downloader polls.
func (d *Downloader) Assigned() int { return len(d.assigned) }

// Stored returns the ThumbBucket keys this downloader has Put since its last
// PollOnce began (that poll's and the FetchClaimed after it), in Put order; a
// key stored twice appears twice. The slice is reused by the next PollOnce.
func (d *Downloader) Stored() []string { return d.stored }

const (
	// maxFetchRetries bounds the in-place retries of one fetch cycle against
	// transient CDN faults (5xx, stalls, resets, truncated or corrupted
	// bodies, missing headers).
	maxFetchRetries = 8
	// maxStrikes is how many consecutive failed fetch cycles a streamer
	// survives before the downloader gives up and releases it back to the
	// queue for a peer to adopt.
	maxStrikes = 3
)

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
// in virtual time, and after maxStrikes consecutive failures release it —
// drop the claim and re-queue the assignment so a healthier peer adopts it.
func (d *Downloader) fail(id string, tr *tracked, now time.Time, err error) {
	tr.strikes++
	mFetchFailures.Inc()
	if tr.strikes >= maxStrikes {
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

// PollOnce runs the fetch cycle of every assignment due at
// virtual time now. It claims nothing: adoption is Deal's, once per tick
// after every downloader has polled.
//
// Errors are isolated per assignment: one failing streamer cannot starve
// its peers or abort the cycle. Each failure backs off (or releases) that
// streamer alone; the joined error of every failed assignment is returned,
// in streamer-ID order, for the caller's logs.
func (d *Downloader) PollOnce(now time.Time) error {
	mDownloaderPolls.Inc()
	d.stored = d.stored[:0]
	ids := make([]string, 0, len(d.assigned))
	for id := range d.assigned {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var errs []error
	for _, id := range ids {
		if tr := d.assigned[id]; !tr.next.After(now) {
			errs = d.cycle(errs, tr, now)
		}
	}
	return errors.Join(errs...)
}

// cycle runs one fetch cycle for an assigned streamer, applies the
// backoff/release discipline if it fails, and returns errs with the failure,
// naming the streamer, appended.
func (d *Downloader) cycle(errs []error, tr *tracked, now time.Time) []error {
	id := tr.a.StreamerID
	if err := d.fetch(id, tr, now); err != nil {
		d.fail(id, tr, now, err)
		return append(errs, fmt.Errorf("streamer %s: %w", id, err))
	}
	tr.strikes = 0
	return errs
}

// Deal is the one adoption step (App. A's load balancing), run serially
// once per tick after every downloader has polled. It tops the downloaders
// up, in dls order, to the ceil-share ⌈(claimed + queued) / alive⌉, where
// alive counts the downloaders sharing the queue (nil: len(dls); a fleet
// worker passes its roster's size). Claiming keeps claimed + queued fixed,
// and alive shares cover the queue, so it drains on the tick that filled it,
// and one caller's deal depends on the store alone. Deal only claims; each
// downloader's FetchClaimed runs the first fetches. halted, if not nil, is
// checked before every claim. An empty queue costs one LLen.
func Deal(kv kvstore.KV, dls []*Downloader, alive func() int, halted func() bool) {
	queued := kv.LLen(KeyQueue)
	if queued == 0 {
		return
	}
	n := len(dls)
	if alive != nil {
		n = alive()
	}
	n = max(n, 1)
	share := (len(kv.HGetAll(KeyClaimed)) + queued + n - 1) / n
	for _, d := range dls {
		for d.Assigned() < share {
			if halted != nil && halted() || !d.claim() {
				return
			}
		}
	}
}

// claim pops the next queue entry and claims it for d. It reports whether
// an entry was consumed: a corrupt one is consumed (so it cannot wedge the
// queue) but never claimed.
func (d *Downloader) claim() bool {
	raw, ok := d.KV.LPop(KeyQueue)
	if !ok {
		return false
	}
	a, err := decodeAssignment(raw)
	if err != nil {
		return true
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
	d.claimed = append(d.claimed, tr)
	d.Claims++
	return true
}

// FetchClaimed runs, at virtual time now, the first fetch cycle of every
// streamer Deal has claimed for d since the last call, in claim order. A
// failure is handled with the usual backoff/release discipline; the joined
// error of the failed ones is returned for the caller's logs.
func (d *Downloader) FetchClaimed(now time.Time) error {
	var errs []error
	for _, tr := range d.claimed {
		errs = d.cycle(errs, tr, now)
	}
	d.claimed = d.claimed[:0]
	return errors.Join(errs...)
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
	var lastErr error
	for attempt := 0; attempt <= maxFetchRetries; attempt++ {
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
	// The digest is the CRC-32C the CDN computed over the true thumbnail
	// (objstore.Checksum). Sent with the body it authenticates nothing; it
	// detects transfer damage, which is all it is asked to do. It is
	// compared as a number, so upper-case hex matches too.
	if want := getResp.Header.Get("X-Thumbnail-Digest"); want != "" {
		if sum, err := strconv.ParseUint(want, 16, 32); err != nil || uint32(sum) != objstore.Checksum(body) {
			mCorruptBody.Inc()
			return fetchFail(transient("GET %s: body digest mismatch", tr.a.URL))
		}
	}
	if seq == tr.lastSeq {
		// Already have this one (e.g. the HEAD seq header was dropped):
		// do not re-store it — a rewrite would re-stamp its download time.
		// Checked after the digest, so a damaged repeat is caught as damage.
		mThumbUnchanged.Inc()
		j.SetAttr("outcome", "unchanged")
		j.End()
		trace.Finish(j.Context().TraceID)
		return nil
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
	// Stamp with the window-open time the CDN reports: a property of the
	// thumbnail itself, identical no matter which downloader fetched it or
	// when within the window, so a re-fetch after a crash or a fleet of any
	// shape stores the same bytes. The header is outside input: without a
	// parsable one, the local virtual fetch time stands in.
	at := now.UTC().Format(time.RFC3339)
	if t, err := time.Parse(time.RFC3339, getResp.Header.Get("X-Thumbnail-At")); err == nil {
		at = t.UTC().Format(time.RFC3339)
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
