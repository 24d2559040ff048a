// Package twitchsim serves a worldsim.World over HTTP with the semantics
// Tero's download module depends on (App. A): a rate-limited, paginated
// developer API listing live streams, a CDN endpoint where each live
// streamer's latest thumbnail is overwritten every ~5 minutes (miss the
// window and the thumbnail is gone), an offline redirect, and social-media
// profile endpoints (Twitter/Steam) for the location module.
//
// Time is virtual: the platform holds a clock that the test driver
// advances; all HTTP exchanges are real TCP/HTTP.
package twitchsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tero/internal/obs"
	"tero/internal/worldsim"
)

// Platform is the simulated streaming + social platform.
type Platform struct {
	World *worldsim.World

	mu       sync.Mutex
	now      time.Time
	sessions map[string][]*worldsim.GenStream // streamer ID -> sessions
	srv      *httptest.Server

	// Rate limiting for the developer API: a refilling token bucket.
	apiTokens    float64
	apiRatePerS  float64
	apiBurst     float64
	lastRefillAt time.Time

	renderOpt worldsim.RenderOptions

	// faults is the active fault injector; nil when injection is off.
	faults atomic.Pointer[faultInjector]

	// cdnLatency is a fixed real-time service delay (ns) added to every
	// CDN request; see SetCDNLatency.
	cdnLatency atomic.Int64

	// Requests counters (observability in tests).
	APIRequests, CDNRequests, Throttled int
	// FaultsInjected counts injected faults of every kind.
	FaultsInjected int
}

// New creates a platform over a world, with the virtual clock at the
// world's start time.
func New(w *worldsim.World) *Platform {
	p := &Platform{
		World:        w,
		now:          w.Cfg.Start,
		sessions:     make(map[string][]*worldsim.GenStream),
		apiRatePerS:  13, // ≈800 requests/minute, Twitch-like
		apiBurst:     30,
		apiTokens:    30,
		lastRefillAt: time.Now(),
		renderOpt:    worldsim.DefaultRenderOptions(),
	}
	for _, st := range w.Streamers {
		p.sessions[st.ID] = w.Sessions(st)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/helix/streams", p.handleStreams)
	mux.HandleFunc("/helix/users", p.handleUsers)
	mux.HandleFunc("/thumb/", p.handleThumb)
	mux.HandleFunc("/offline.pgm", p.handleOffline)
	mux.HandleFunc("/twitter/", p.handleTwitter)
	mux.HandleFunc("/steam/", p.handleSteam)
	mux.HandleFunc("/admin/advance", p.handleAdvance)
	mux.HandleFunc("/admin/now", p.handleNow)
	p.srv = httptest.NewServer(instrument(p.injectFaults(mux)))
	return p
}

// SetFaults installs (or, with a zero/disabled options value, removes) the
// platform's fault-injection layer. Safe to call while serving.
func (p *Platform) SetFaults(opt FaultOptions) {
	if !opt.Enabled() {
		p.faults.Store(nil)
		return
	}
	p.faults.Store(newFaultInjector(opt))
}

// contextWithFaults attaches a request's body/header fault decision.
func contextWithFaults(ctx context.Context, d reqFaults) context.Context {
	return context.WithValue(ctx, faultCtxKey{}, d)
}

// faultsFrom returns the request's fault decision (zero value when none).
func faultsFrom(ctx context.Context) reqFaults {
	d, _ := ctx.Value(faultCtxKey{}).(reqFaults)
	return d
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument is the platform's HTTP middleware: per-route request counters
// split by status class (429 counted apart from other 4xx — it is the
// signal the download module's retry behavior is judged by) and a per-route
// latency histogram.
func instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		route := routeOf(r.URL.Path)
		obs.C(obs.Lbl("twitchsim_http_requests_total",
			"route", route, "class", statusClass(rec.code))).Inc()
		obs.H(obs.Lbl("twitchsim_http_seconds", "route", route),
			obs.DurationBuckets).Observe(time.Since(start).Seconds())
	})
}

// routeOf buckets a request path into a coarse route label.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/helix/streams"):
		return "helix_streams"
	case strings.HasPrefix(path, "/helix/users"):
		return "helix_users"
	case strings.HasPrefix(path, "/thumb/"), path == "/offline.pgm":
		return "cdn"
	case strings.HasPrefix(path, "/twitter/"), strings.HasPrefix(path, "/steam/"):
		return "social"
	case strings.HasPrefix(path, "/admin/"):
		return "admin"
	}
	return "other"
}

// statusClass maps an HTTP status to its metric label.
func statusClass(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "429"
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 300 && code < 400:
		return "3xx"
	case code >= 400 && code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// URL returns the platform base URL.
func (p *Platform) URL() string { return p.srv.URL }

// Close shuts the HTTP server down.
func (p *Platform) Close() { p.srv.Close() }

// Now returns the virtual time.
func (p *Platform) Now() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

// Advance moves the virtual clock forward.
func (p *Platform) Advance(d time.Duration) {
	p.mu.Lock()
	p.now = p.now.Add(d)
	p.mu.Unlock()
}

// SetCDNLatency adds a fixed real-time service delay to every CDN request
// (thumbnail and offline endpoints). The virtual clock never advances
// during the delay and no data changes, so any latency setting produces
// identical tables — it exists to give each fetch a realistic RTT that a
// distributed worker fleet can overlap, where a single serial process
// cannot.
func (p *Platform) SetCDNLatency(d time.Duration) { p.cdnLatency.Store(int64(d)) }

// cdnWait applies the configured CDN service delay.
func (p *Platform) cdnWait() {
	if d := p.cdnLatency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// SetAPIRate overrides the developer-API rate limit (requests/second and
// burst) — tests that hammer the API legitimately use this.
func (p *Platform) SetAPIRate(perSecond, burst float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.apiRatePerS = perSecond
	p.apiBurst = burst
	p.apiTokens = burst
}

// liveSession returns the session covering virtual time t, if any, plus the
// index of the latest thumbnail point at or before t.
func (p *Platform) liveSession(id string, t time.Time) (*worldsim.GenStream, int) {
	for _, gs := range p.sessions[id] {
		n := len(gs.Times)
		if n == 0 {
			continue
		}
		// A session is live from its first point until ~5 minutes past its
		// last thumbnail.
		if t.Before(gs.Times[0]) || t.After(gs.Times[n-1].Add(5*time.Minute)) {
			continue
		}
		idx := sort.Search(n, func(i int) bool { return gs.Times[i].After(t) }) - 1
		if idx < 0 {
			idx = 0
		}
		return gs, idx
	}
	return nil, 0
}

// allowAPI consumes one API token (real-time token bucket).
func (p *Platform) allowAPI() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	p.apiTokens += p.apiRatePerS * now.Sub(p.lastRefillAt).Seconds()
	if p.apiTokens > p.apiBurst {
		p.apiTokens = p.apiBurst
	}
	p.lastRefillAt = now
	if p.apiTokens < 1 {
		p.Throttled++
		return false
	}
	p.apiTokens--
	p.APIRequests++
	return true
}

// StreamInfo is one row of the Get Streams response.
type StreamInfo struct {
	UserID       string   `json:"user_id"`
	UserLogin    string   `json:"user_login"`
	GameName     string   `json:"game_name"`
	ThumbnailURL string   `json:"thumbnail_url"`
	StartedAt    string   `json:"started_at"`
	Tags         []string `json:"tags,omitempty"`
}

// streamsResponse is the paginated API envelope.
type streamsResponse struct {
	Data       []StreamInfo `json:"data"`
	Pagination struct {
		Cursor string `json:"cursor,omitempty"`
	} `json:"pagination"`
}

func (p *Platform) handleStreams(w http.ResponseWriter, r *http.Request) {
	if !p.allowAPI() {
		w.Header().Set("Ratelimit-Reset", strconv.FormatInt(time.Now().Add(time.Second).Unix(), 10))
		http.Error(w, `{"error":"Too Many Requests"}`, http.StatusTooManyRequests)
		return
	}
	first, _ := strconv.Atoi(r.URL.Query().Get("first"))
	if first <= 0 || first > 100 {
		first = 20
	}
	after, _ := strconv.Atoi(r.URL.Query().Get("after"))
	now := p.Now()

	// Collect live streams in stable ID order.
	var live []StreamInfo
	for _, st := range p.World.Streamers {
		gs, _ := p.liveSession(st.ID, now)
		if gs == nil {
			continue
		}
		info := StreamInfo{
			UserID:       st.ID,
			UserLogin:    st.Username,
			GameName:     gs.Game.Name,
			ThumbnailURL: p.srv.URL + "/thumb/" + st.ID + ".pgm",
			StartedAt:    gs.Times[0].UTC().Format(time.RFC3339),
		}
		if st.Profile.CountryTag != "" {
			info.Tags = []string{st.Profile.CountryTag}
		}
		live = append(live, info)
	}
	var resp streamsResponse
	end := after + first
	if after < len(live) {
		if end > len(live) {
			end = len(live)
		}
		resp.Data = live[after:end]
	}
	if end < len(live) {
		resp.Pagination.Cursor = strconv.Itoa(end)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// userResponse is the Get Users envelope.
type userResponse struct {
	Data []struct {
		ID          string `json:"id"`
		Login       string `json:"login"`
		Description string `json:"description"`
	} `json:"data"`
}

func (p *Platform) handleUsers(w http.ResponseWriter, r *http.Request) {
	if !p.allowAPI() {
		http.Error(w, `{"error":"Too Many Requests"}`, http.StatusTooManyRequests)
		return
	}
	var resp userResponse
	q := r.URL.Query()
	now := p.Now()
	lookup := func(match func(*worldsim.Streamer) bool) {
		for _, st := range p.World.Streamers {
			if match(st) {
				resp.Data = append(resp.Data, struct {
					ID          string `json:"id"`
					Login       string `json:"login"`
					Description string `json:"description"`
				}{st.ID, st.Username, st.ProfileAt(now).Description})
				return
			}
		}
	}
	if id := q.Get("id"); id != "" {
		lookup(func(st *worldsim.Streamer) bool { return st.ID == id })
	} else if login := q.Get("login"); login != "" {
		lookup(func(st *worldsim.Streamer) bool { return st.Username == login })
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (p *Platform) handleThumb(w http.ResponseWriter, r *http.Request) {
	p.cdnWait()
	p.mu.Lock()
	p.CDNRequests++
	p.mu.Unlock()
	id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/thumb/"), ".pgm")
	now := p.Now()
	gs, idx := p.liveSession(id, now)
	if gs == nil {
		// Streamer offline: redirect to the generic offline thumbnail.
		http.Redirect(w, r, "/offline.pgm", http.StatusFound)
		return
	}
	// Next-thumbnail time (HEAD uses this to schedule the next download).
	var next time.Time
	if idx+1 < len(gs.Times) {
		next = gs.Times[idx+1]
	} else {
		next = gs.Times[idx].Add(5 * time.Minute)
	}
	flt := faultsFrom(r.Context())
	if flt.dropNext {
		p.countFault("drop_next")
	} else {
		w.Header().Set("X-Next-Thumbnail", next.UTC().Format(time.RFC3339))
	}
	if flt.dropSeq {
		p.countFault("drop_seq")
	} else {
		w.Header().Set("X-Thumbnail-Seq", strconv.Itoa(idx))
	}
	// When this thumbnail window opened — a property of the data, not of
	// the request. Downloaders with WindowStamp use it so re-fetches after
	// crashes stamp identically.
	w.Header().Set("X-Thumbnail-At", gs.Times[idx].UTC().Format(time.RFC3339))
	w.Header().Set("Content-Type", "image/x-portable-graymap")
	if r.Method == http.MethodHead {
		return
	}
	// Render deterministically: seed by streamer and index so a re-GET of
	// the same thumbnail is byte-identical.
	img, _ := worldsim.RenderDeterministic(gs, idx, p.renderOpt)
	var buf bytes.Buffer
	if err := img.EncodePGM(&buf); err != nil {
		http.Error(w, "render error", http.StatusInternalServerError)
		return
	}
	body := buf.Bytes()
	// The digest describes the true thumbnail, computed before any body
	// fault: a downloader that verifies it detects bit corruption and can
	// re-fetch instead of storing a poisoned PGM.
	sum := sha256.Sum256(body)
	w.Header().Set("X-Thumbnail-Digest", hex.EncodeToString(sum[:]))
	// Declare the true length so a truncated body is detectable by the
	// client as an unexpected EOF instead of a silent short read.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if flt.corrupt {
		p.countFault("corrupt")
		body = append([]byte(nil), body...)
		// Flip bytes across the body, starting inside the PGM header so a
		// non-verifying consumer sees an undecodable image.
		for i := 2; i < len(body); i += 509 {
			body[i] ^= 0xA5
		}
	}
	if flt.truncate {
		p.countFault("truncate")
		body = body[:len(body)/2]
	}
	w.Write(body)
}

func (p *Platform) handleOffline(w http.ResponseWriter, r *http.Request) {
	p.cdnWait()
	w.Header().Set("Content-Type", "image/x-portable-graymap")
	fmt.Fprint(w, "P5\n1 1\n255\n\x00")
}

// twitterResponse is the social profile envelope.
type twitterResponse struct {
	Username string `json:"username"`
	Location string `json:"location"`
	// Links are the profile's outbound links (the backlink check looks for
	// the streamer's Twitch URL here).
	Links []string `json:"links"`
}

func (p *Platform) handleTwitter(w http.ResponseWriter, r *http.Request) {
	username := strings.TrimPrefix(r.URL.Path, "/twitter/")
	now := p.Now()
	for _, st := range p.World.Streamers {
		prof := st.ProfileAt(now)
		if !prof.HasTwitter || prof.TwitterUsername != username {
			continue
		}
		resp := twitterResponse{Username: username}
		if prof.Impersonator {
			// The handle belongs to someone else who still links to the
			// streamer (fan account) — the mapping-error mode.
			resp.Location = prof.ImpersonatorLocation
			resp.Links = []string{"twitch.tv/" + st.Username}
		} else {
			resp.Location = prof.TwitterLocation
			if prof.TwitterBacklink {
				resp.Links = []string{"twitch.tv/" + st.Username}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
		return
	}
	http.NotFound(w, r)
}

// steamResponse is the Steam profile envelope: a backlink for mapping and
// an optional country-granularity location field.
type steamResponse struct {
	Username string   `json:"username"`
	Country  string   `json:"country,omitempty"`
	Links    []string `json:"links"`
}

func (p *Platform) handleSteam(w http.ResponseWriter, r *http.Request) {
	username := strings.TrimPrefix(r.URL.Path, "/steam/")
	now := p.Now()
	for _, st := range p.World.Streamers {
		prof := st.ProfileAt(now)
		if !prof.HasSteam || prof.SteamUsername != username {
			continue
		}
		resp := steamResponse{Username: username, Country: prof.SteamCountry}
		if prof.SteamBacklink {
			resp.Links = []string{"twitch.tv/" + st.Username}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
		return
	}
	http.NotFound(w, r)
}

func (p *Platform) handleAdvance(w http.ResponseWriter, r *http.Request) {
	d, err := time.ParseDuration(r.URL.Query().Get("by"))
	if err != nil || d < 0 {
		http.Error(w, "bad duration", http.StatusBadRequest)
		return
	}
	p.Advance(d)
	fmt.Fprint(w, p.Now().UTC().Format(time.RFC3339))
}

func (p *Platform) handleNow(w http.ResponseWriter, r *http.Request) {
	fmt.Fprint(w, p.Now().UTC().Format(time.RFC3339))
}
