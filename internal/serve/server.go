package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/stats"
)

// Observability: the server mirrors the twitchsim middleware idiom —
// request counters by route and status class, a latency histogram per
// route — plus the index gauges (index.go). Everything lands in the
// obs.Default registry.
//
// At serving rates the metric *lookups* themselves become hot-path work:
// obs.Lbl renders a labeled name (an allocation) and the registry resolves
// it through a map on every call. The route set is closed, so every
// {route, class} handle is resolved once at init into routeHandles and the
// per-request cost is one small map hit and two atomic adds.
var (
	slog = obs.L("serve")

	mNotModified = obs.C("serve_not_modified_total")
)

// routeHandles holds one route's pre-resolved metric handles.
type routeHandles struct {
	classes [4]*obs.Counter // 2xx, 3xx, 4xx, 5xx
	seconds *obs.Histogram
}

var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// apiRoutes are the route labels of the /v1 query API.
var apiRoutes = []string{"locations", "games", "latency", "compare"}

// routeHandleTab maps every known route label to its handles.
var routeHandleTab = func() map[string]*routeHandles {
	m := make(map[string]*routeHandles)
	for _, route := range append([]string{"health", "metrics", "other"}, apiRoutes...) {
		h := &routeHandles{
			seconds: obs.H(obs.Lbl("serve_http_seconds", "route", route), obs.DurationBuckets),
		}
		for i, class := range statusClasses {
			h.classes[i] = obs.C(obs.Lbl("serve_http_requests_total", "route", route, "class", class))
		}
		m[route] = h
	}
	return m
}()

// handlesFor returns the pre-resolved handles for a route label.
func handlesFor(route string) *routeHandles { return routeHandleTab[route] }

// Server is the HTTP layer of the latency-information service. Create it
// with NewServer, mount it anywhere (it implements http.Handler), and feed
// its Index via Builder.Build + Index.Swap.
//
// Routes:
//
//	GET /v1/locations                  locations with data, their games
//	GET /v1/games                      games with data, their coverage
//	GET /v1/latency?location=K&game=G  stats/quantiles/histogram/CDF
//	GET /v1/compare?a=K::G&b=K::G      Wasserstein distance between pairs
//	GET /healthz                       liveness (always 200)
//	GET /readyz                        503 until the first snapshot Swap
//	GET /metrics                       obs.Default text dump
//
// Every /v1 response carries a deterministic ETag and honors
// If-None-Match with 304. Every /v1/latency body is rendered at snapshot
// build time, so the steady-state handler does no marshaling at all.
type Server struct {
	ix      *Index
	report  atomic.Pointer[func() string]
	handler http.Handler
}

// NewServer wraps an index in the HTTP API.
func NewServer(ix *Index) *Server {
	s := &Server{ix: ix}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleRoot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", obs.MetricsHandler(obs.Default))
	mux.HandleFunc("/v1/locations", s.handleLocations)
	mux.HandleFunc("/v1/games", s.handleGames)
	mux.HandleFunc("/v1/latency", s.handleLatency)
	mux.HandleFunc("/v1/compare", s.handleCompare)
	s.handler = instrument(mux)
	return s
}

// SetStatusReport installs a function whose output is appended to the
// /readyz body — the SLO burn-rate report, typically. Nil removes it. The
// endpoint stays 200/503 on index readiness alone; the report is
// informational so a hot burn never flaps the load balancer.
func (s *Server) SetStatusReport(fn func() string) {
	if fn == nil {
		s.report.Store(nil)
		return
	}
	s.report.Store(&fn)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// statusRecorder captures the status a handler writes (twitchsim idiom).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument is the serving middleware: per-route request counters split
// by status class and a per-route latency histogram, all through handles
// resolved once at init.
//
// With tracing enabled each request additionally runs under a
// "serve.request" span. An incoming traceparent header joins the request to
// the caller's trace (any client speaking W3C trace context); otherwise the
// request roots a fresh trace. The latency histogram records the span's
// trace ID as a bucket exemplar, so a /metrics reader can jump from "p99 is
// high" straight to a stored trace. Tracing disabled costs one atomic load
// and a nil check.
func instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		var tsp *trace.Span
		if trace.Enabled() {
			attrs := []trace.Attr{
				trace.A("method", r.Method), trace.A("path", r.URL.Path),
			}
			if parent, ok := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); ok {
				tsp = trace.StartRemoteChild(parent, "serve.request", attrs...)
			} else {
				tsp = trace.StartTrace("serve.request", attrs...)
			}
		}
		next.ServeHTTP(rec, r)
		h := handlesFor(routeOf(r.URL.Path))
		h.classes[classIdx(rec.code)].Inc()
		secs := time.Since(start).Seconds()
		if tsp == nil {
			h.seconds.Observe(secs)
			return
		}
		tsp.SetAttr("status", strconv.Itoa(rec.code))
		if rec.code >= 500 {
			tsp.SetError(http.StatusText(rec.code))
		}
		tsp.End()
		h.seconds.ObserveExemplar(secs, tsp.Context().TraceID)
	})
}

// RequestTotals sums the serve tier's cumulative request outcomes over the
// /v1 query routes: bad is what availability SLOs count against the budget,
// the 5xx class. Probes and scrapes are not queries: /readyz's 503 before
// the first publish is not a failed request, and /healthz or /metrics hits
// are not served answers. Reads a handful of atomics; cheap enough for
// per-tick SLO evaluation.
func RequestTotals() (good, bad float64) {
	for _, route := range apiRoutes {
		for i, c := range handlesFor(route).classes {
			if i == 3 {
				bad += float64(c.Value())
			} else {
				good += float64(c.Value())
			}
		}
	}
	return good, bad
}

// routeOf buckets a request path into its metric label.
func routeOf(path string) string {
	switch {
	case path == "/v1/locations":
		return "locations"
	case path == "/v1/games":
		return "games"
	case path == "/v1/latency":
		return "latency"
	case path == "/v1/compare":
		return "compare"
	case path == "/healthz", path == "/readyz":
		return "health"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// classIdx maps an HTTP status to its index in routeHandles.classes.
func classIdx(code int) int {
	switch {
	case code >= 200 && code < 300:
		return 0
	case code >= 300 && code < 400:
		return 1
	case code >= 400 && code < 500:
		return 2
	}
	return 3
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError emits a JSON error with the given status.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(mustMarshal(errorBody{Error: fmt.Sprintf(format, args...)})) //nolint:errcheck
	w.Write([]byte("\n"))                                                //nolint:errcheck
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, weak prefixes ignored, "*" matches anything.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

const contentTypeJSON = "application/json; charset=utf-8"

// ContentTypeBinary named the binary representation /v1/latency used to
// negotiate; a request that Accepts it gets the JSON answer. It stays only
// because bench/ names it and that module changes in benchmark PRs alone.
const ContentTypeBinary = "application/x-tero-bin"

// writeJSON serves a pre-rendered JSON body with its ETag, answering 304
// when the client already holds the current representation.
func writeJSON(w http.ResponseWriter, r *http.Request, body []byte, etag string) {
	h := w.Header()
	h.Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		mNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", contentTypeJSON)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck — nothing to do about a dead client
}

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, "no such route: %s", r.URL.Path)
		return
	}
	fmt.Fprint(w, "tero latency-information service\n"+
		"  /v1/locations\n  /v1/games\n"+
		"  /v1/latency?location=<key>&game=<name>\n"+
		"  /v1/compare?a=<key>::<game>&b=<key>::<game>\n"+
		"  /healthz  /readyz  /metrics\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ix.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "index not ready")
		return
	}
	fmt.Fprintln(w, "ready")
	if fn := s.report.Load(); fn != nil {
		fmt.Fprint(w, (*fn)())
	}
}

// snapshotOr503 loads the snapshot a request is answered from, emitting the
// not-ready error itself. A handler calls it once: everything in a response
// comes from that snapshot, however many Swaps land while it is written.
func (s *Server) snapshotOr503(w http.ResponseWriter) *Snapshot {
	snap := s.ix.snap.Load()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "index not ready")
	}
	return snap
}

func (s *Server) handleLocations(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	writeJSON(w, r, snap.Catalog.locationsBody, snap.Catalog.locationsETag)
}

func (s *Server) handleGames(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	writeJSON(w, r, snap.Catalog.gamesBody, snap.Catalog.gamesETag)
}

// handleLatency is the hot path: the body and ETag it serves were rendered
// at snapshot build time, so the steady-state request is query parse, one
// map lookup and one Write.
func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	q := r.URL.Query()
	locKey, game := q.Get("location"), q.Get("game")
	if locKey == "" || game == "" {
		writeError(w, http.StatusBadRequest,
			"missing required parameters: location and game")
		return
	}
	key := strings.ToLower(locKey) + "::" + strings.ToLower(game)
	e, ok := snap.Lookup(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no data for {%s, %s}", locKey, game)
		return
	}
	writeJSON(w, r, e.body, e.etag)
}

// lookupPair resolves one /v1/compare side parameter in snap.
func lookupPair(w http.ResponseWriter, snap *Snapshot, name, raw string) (*Entry, bool) {
	if raw == "" {
		writeError(w, http.StatusBadRequest,
			"missing required parameter: %s (format <location-key>::<game>)", name)
		return nil, false
	}
	locKey, game, ok := SplitPairKey(raw)
	if !ok {
		writeError(w, http.StatusBadRequest,
			"malformed %s=%q: want <location-key>::<game>", name, raw)
		return nil, false
	}
	e, found := snap.Lookup(strings.ToLower(locKey) + "::" + strings.ToLower(game))
	if !found {
		writeError(w, http.StatusNotFound, "no data for %s={%s, %s}", name, locKey, game)
		return nil, false
	}
	return e, true
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	q := r.URL.Query()
	a, ok := lookupPair(w, snap, "a", q.Get("a"))
	if !ok {
		return
	}
	b, ok := lookupPair(w, snap, "b", q.Get("b"))
	if !ok {
		return
	}
	etag := combineETags(a.etag, b.etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		mNotModified.Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	dist, ok := stats.Wasserstein1OK(a.Sorted, b.Sorted)
	if !ok {
		// Entries always hold at least one finite point, so this is
		// unreachable in practice — but the API must never emit NaN.
		writeError(w, http.StatusUnprocessableEntity,
			"distance undefined for this pair")
		return
	}
	side := func(e *Entry) CompareSideJSON {
		return CompareSideJSON{
			Location: locationJSON(e.Location),
			Game:     e.Game,
			N:        e.N(),
			MedianMs: e.medianMs(),
		}
	}
	writeJSON(w, r, mustMarshal(CompareResponse{
		A:             side(a),
		B:             side(b),
		WassersteinMs: stats.Sanitize(dist),
	}), etag)
}
