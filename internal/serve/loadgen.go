package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tero/internal/obs/trace"
	"tero/internal/stats"
)

// LoadGen hammers a running latency service over TCP with concurrent
// clients: it discovers the served {location, game} pairs from
// /v1/locations, then each client round-robins latency queries (with
// periodic If-None-Match revalidations) and pair comparisons, recording
// per-request latency. It is the smoke-test client (teroserve -loadtest,
// scripts/check.sh); the measured trajectory lives in bench/.
//
// Overload: a 503 carrying Retry-After is a *shed*, not a failure — the
// server is applying admission control. Sheds are counted separately from
// server errors, the client honors the advertised backoff (capped at
// ShedBackoffCap so a run against a gated server still finishes), and the
// run keeps going.
type LoadGen struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent clients (default 32).
	Clients int
	// RequestsPerClient is each client's request budget (default 200).
	RequestsPerClient int
	// ShedBackoffCap bounds how long a client honors a shed's Retry-After
	// (default 25ms). The header advertises whole seconds; sleeping the
	// full second per shed would make an overloaded run mostly measure
	// sleeping.
	ShedBackoffCap time.Duration
	// Trace roots a client span per request and propagates it via the
	// traceparent header, so the server half of each request joins the
	// client's trace (no-op while tracing is disabled).
	Trace bool
}

// Every client's request mix: each revalidateEvery-th request is an
// If-None-Match replay of the pair's last ETag, each compareEvery-th a
// /v1/compare of two adjacent pairs (the compare, when both apply).
const (
	revalidateEvery = 4
	compareEvery    = 8
)

// LoadReport is the outcome of one LoadGen run.
type LoadReport struct {
	Clients       int
	Requests      int
	OK            int // 200s
	NotModified   int // 304s
	ClientErrors  int // 4xx
	ServerErrors  int // 5xx other than sheds
	Shed          int // 503 + Retry-After: admission control, not failure
	TransportErrs int
	Elapsed       time.Duration
	Throughput    float64 // requests per second
	P50Ms         float64 // of non-shed responses
	P99Ms         float64
	MaxMs         float64
}

// String renders the report as one aligned block.
func (r LoadReport) String() string {
	return fmt.Sprintf(
		"clients %d  requests %d  ok %d  304 %d  4xx %d  5xx %d  shed %d  transport-errors %d\n"+
			"elapsed %s  throughput %.0f req/s  p50 %.2f ms  p99 %.2f ms  max %.2f ms",
		r.Clients, r.Requests, r.OK, r.NotModified, r.ClientErrors,
		r.ServerErrors, r.Shed, r.TransportErrs, r.Elapsed.Round(time.Millisecond),
		r.Throughput, r.P50Ms, r.P99Ms, r.MaxMs)
}

// target is one queryable {location, game} pair.
type target struct {
	locKey, game string
}

// get performs one GET and drains the body, capturing it only when asked.
func get(ctx context.Context, client *http.Client, u *url.URL, hdr http.Header,
	capture bool) (status int, respHdr http.Header, body []byte, err error) {
	req := (&http.Request{
		Method: http.MethodGet, URL: u,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: hdr, Host: u.Host,
	}).WithContext(ctx)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if capture {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header, body, err
}

// emptyHeader is shared by requests that set nothing; the transport only
// reads it.
var emptyHeader = http.Header{}

// discoverTargets reads /v1/locations and flattens it into pairs, retrying
// briefly through shed responses so a run can start against a gated server.
func discoverTargets(ctx context.Context, client *http.Client, base *url.URL) ([]target, error) {
	u := at(base, "/v1/locations", nil)
	var body []byte
	for attempt := 0; ; attempt++ {
		status, _, got, err := get(ctx, client, u, emptyHeader, true)
		if err != nil {
			return nil, fmt.Errorf("serve: loadgen discover: %w", err)
		}
		if status == http.StatusOK {
			body = got
			break
		}
		if status == http.StatusServiceUnavailable && attempt < 5 {
			select {
			case <-time.After(100 * time.Millisecond):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return nil, fmt.Errorf("serve: loadgen discover: status %d", status)
	}
	var listing struct {
		Locations []LocationSummary `json:"locations"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return nil, fmt.Errorf("serve: loadgen discover: %w", err)
	}
	var out []target
	for _, l := range listing.Locations {
		for _, g := range l.Games {
			out = append(out, target{locKey: l.Location.Key, game: g})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: loadgen: service lists no {location, game} pairs")
	}
	return out, nil
}

// prePair is one pair's pre-built URLs, so the request loop never builds
// or parses a URL.
type prePair struct {
	latURL *url.URL
	cmpURL *url.URL // compare against the next pair (nil when single pair)
}

// at returns the service root's URL for an API path and query.
func at(base *url.URL, path string, q url.Values) *url.URL {
	u := *base
	u.Path, u.RawQuery = path, q.Encode()
	return &u
}

// prepare builds every pair's latency and compare URLs under base.
func prepare(base *url.URL, pairs []target) []prePair {
	out := make([]prePair, len(pairs))
	for i, t := range pairs {
		out[i].latURL = at(base, "/v1/latency", url.Values{"location": {t.locKey}, "game": {t.game}})
		if len(pairs) > 1 {
			n := pairs[(i+1)%len(pairs)]
			out[i].cmpURL = at(base, "/v1/compare", url.Values{
				"a": {t.locKey + "::" + t.game}, "b": {n.locKey + "::" + n.game}})
		}
	}
	return out
}

// clientStats is one client's tally, merged after the run.
type clientStats struct {
	requests, ok, notModified, clientErrs, serverErrs, shed, transportErrs int
	durations                                                              []float64 // ms
}

// retryAfterDelay parses a Retry-After header (delta-seconds form) into a
// backoff bounded by cap.
func retryAfterDelay(header string, cap time.Duration) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs < 0 {
		secs = 1
	}
	d := time.Duration(secs) * time.Second
	if d > cap {
		d = cap
	}
	return d
}

// Run executes the load test and aggregates the report. It returns an
// error only when the run could not start (discovery failed); request
// failures are counted, not fatal.
func (lg *LoadGen) Run(ctx context.Context) (LoadReport, error) {
	base, err := url.Parse(lg.BaseURL)
	if err != nil {
		return LoadReport{}, fmt.Errorf("serve: loadgen: BaseURL: %w", err)
	}
	clients := lg.Clients
	if clients <= 0 {
		clients = 32
	}
	perClient := lg.RequestsPerClient
	if perClient <= 0 {
		perClient = 200
	}
	backoffCap := lg.ShedBackoffCap
	if backoffCap <= 0 {
		backoffCap = 25 * time.Millisecond
	}

	transport := &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	pairs, err := discoverTargets(ctx, client, base)
	if err != nil {
		return LoadReport{}, err
	}
	pre := prepare(base, pairs)

	tallies := make([]clientStats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cs := &tallies[c]
			cs.durations = make([]float64, 0, perClient)
			etags := make([]string, len(pairs)) // last seen latency ETag per pair
			for i := 0; i < perClient; i++ {
				if ctx.Err() != nil {
					return
				}
				pi := (c + i) % len(pairs)
				p := &pre[pi]
				u, hdr := p.latURL, emptyHeader
				isLatency := true
				if i%compareEvery == compareEvery-1 && p.cmpURL != nil {
					u, isLatency = p.cmpURL, false
				} else if i%revalidateEvery == revalidateEvery-1 && etags[pi] != "" {
					hdr = http.Header{"If-None-Match": {etags[pi]}}
				}
				cs.requests++
				var tsp *trace.Span
				if lg.Trace {
					tsp = trace.StartTrace("loadgen.request",
						trace.A("client", strconv.Itoa(c)), trace.A("path", u.Path))
					if tp := trace.Traceparent(tsp.Context()); tp != "" {
						// emptyHeader is shared and read-only; clone before
						// injecting the per-request traceparent.
						hdr = hdr.Clone()
						hdr.Set(trace.TraceparentHeader, tp)
					}
				}
				reqStart := time.Now()
				status, respHdr, _, err := get(ctx, client, u, hdr, false)
				if err != nil {
					cs.transportErrs++
					tsp.SetError(err.Error())
					tsp.End()
					continue
				}
				dur := float64(time.Since(reqStart)) / float64(time.Millisecond)
				isShed := status == http.StatusServiceUnavailable && respHdr.Get("Retry-After") != ""
				if tsp != nil {
					tsp.SetAttr("status", strconv.Itoa(status))
					if status >= 500 && !isShed {
						tsp.SetError(http.StatusText(status))
					}
					tsp.End()
				}
				switch {
				case status == http.StatusOK:
					cs.ok++
					cs.durations = append(cs.durations, dur)
					if isLatency {
						if et := respHdr.Get("ETag"); et != "" {
							etags[pi] = et
						}
					}
				case status == http.StatusNotModified:
					cs.notModified++
					cs.durations = append(cs.durations, dur)
				case isShed:
					// Admission control shed: honor the (capped) backoff
					// and keep going — overload is a measured regime, not
					// a run-ending failure.
					cs.shed++
					select {
					case <-time.After(retryAfterDelay(respHdr.Get("Retry-After"), backoffCap)):
					case <-ctx.Done():
						return
					}
				case status >= 500:
					cs.serverErrs++
					cs.durations = append(cs.durations, dur)
				case status >= 400:
					cs.clientErrs++
					cs.durations = append(cs.durations, dur)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{Clients: clients, Elapsed: elapsed}
	var all []float64
	for i := range tallies {
		cs := &tallies[i]
		rep.Requests += cs.requests
		rep.OK += cs.ok
		rep.NotModified += cs.notModified
		rep.ClientErrors += cs.clientErrs
		rep.ServerErrors += cs.serverErrs
		rep.Shed += cs.shed
		rep.TransportErrs += cs.transportErrs
		all = append(all, cs.durations...)
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	}
	sort.Float64s(all)
	if p, ok := stats.PercentileOK(all, 50); ok {
		rep.P50Ms = p
	}
	if p, ok := stats.PercentileOK(all, 99); ok {
		rep.P99Ms = p
	}
	if _, max, ok := stats.MinMaxOK(all); ok {
		rep.MaxMs = max
	}
	return rep, nil
}
