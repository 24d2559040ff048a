// Package serve is Tero's latency-information query service (§1, §6): it
// ingests the analysis output of the pipeline — per-{location, game}
// latency distributions derived by core.Analyze/core.Distribution — into a
// read-optimized in-memory index and exposes it over a stdlib net/http
// JSON API. This is the subsystem third parties (game companies,
// ISPs, researchers) query; everything before it is the producer.
//
// The moving parts:
//
//   - Builder keeps *core.Analysis values grouped by {location, game} (the
//     pipeline feeds it via Pipeline.PublishAt) and Build()s an immutable
//     Snapshot: one Entry per group with every statistic the API serves
//     precomputed, rendered again only for the groups that changed.
//   - Index holds the current Snapshot behind one atomic pointer; Swap
//     replaces it with one store, and a request is answered wholly from
//     the snapshot it loaded, so readers never wait and never mix two
//     publishes in one response.
//   - Server is the HTTP layer: /v1/locations, /v1/games, /v1/latency,
//     /v1/compare, /healthz, /readyz, /metrics, with deterministic ETags
//     and If-None-Match 304s.
//   - LoadGen hammers a running server with N concurrent clients and
//     reports throughput and tail latency.
//
// Determinism: an Entry is a pure function of its group's analyses, groups
// are processed in sorted key order, and all floats flowing into JSON pass
// through the stats sanitizers — so response bodies are byte-identical
// across serial and concurrent builds, across incremental and from-scratch
// builds, and across pipeline republishes of identical data.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"tero/internal/core"
	"tero/internal/geo"
	"tero/internal/stats"
)

// quantileProbs are the percentiles every latency response reports: the
// paper's five boxplot percentiles (§5.2) plus the 1/10/90/99 tails the
// serving consumers (matchmaking, ISP planning) ask for.
var quantileProbs = []float64{1, 5, 10, 25, 50, 75, 90, 95, 99}

// Histogram layout defaults: fixed buckets shared by every entry so
// distributions are comparable bin-for-bin across locations.
const (
	DefaultHistLoMs = 0
	DefaultHistHiMs = 400
	DefaultHistBins = 40
)

// EntryKey is the canonical index key for a {location, game} pair:
// the location's lowercased "city|region|country" key joined to the
// lowercased game name with "::".
func EntryKey(loc geo.Location, game string) string {
	return loc.Key() + "::" + strings.ToLower(game)
}

// SplitPairKey splits a "location::game" composite key as used by the
// /v1/compare a= and b= parameters. The location part is a geo.Location
// key (which itself contains '|'), the game part follows the last "::".
func SplitPairKey(s string) (locKey, game string, ok bool) {
	i := strings.LastIndex(s, "::")
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+2:], true
}

// Entry is one read-optimized {location, game} record: the sorted latency
// sample plus every derived statistic the API serves, all precomputed at
// build time — including the marshaled JSON body, the encoded binary body
// and both representations' ETags — so the steady-state query path is a
// map lookup plus one Write, with zero per-request marshaling.
// Entries are immutable after construction and safe to share across
// goroutines and snapshots.
type Entry struct {
	Key      string
	Location geo.Location
	Game     string
	// Sorted is the ascending kept-latency sample of the distribution
	// (core.Distribution output). Never empty.
	Sorted []float64
	// Streamers counts the contributing streamers: the non-discarded
	// high-quality analyses of the group.
	Streamers int

	body    []byte // the latency response marshaled as JSON at build time
	binBody []byte // the same response in the binary wire format
	etag    string // JSON representation ETag
	binETag string // binary representation ETag (same hash, distinct tag)
}

// N returns the sample size.
func (e *Entry) N() int { return len(e.Sorted) }

// medianMs returns the served median.
func (e *Entry) medianMs() float64 {
	med, _ := stats.PercentileOK(e.Sorted, 50)
	return stats.Sanitize(med)
}

// ETag returns the entry's deterministic ETag: a hash of the full sample
// and identity, so identical data always revalidates and any republish
// with changed data misses.
func (e *Entry) ETag() string { return e.etag }

// ETagBinary returns the ETag of the binary representation: same data
// hash, distinct tag, so a client switching Accept never gets a 304 for a
// representation it does not hold.
func (e *Entry) ETagBinary() string { return e.binETag }

// Response derives the latency response from the sorted sample: the value
// both bodies were rendered from at build time. The entry does not keep it
// (≈ 1.4 KiB each, and the request path serves the rendered bodies).
func (e *Entry) Response() LatencyResponse { return e.computeResponse() }

// BodyJSON returns the pre-marshaled JSON body (callers must not mutate).
func (e *Entry) BodyJSON() []byte { return e.body }

// BodyBinary returns the pre-encoded binary body (callers must not mutate).
func (e *Entry) BodyBinary() []byte { return e.binBody }

// LocationJSON is the JSON shape of a location tuple.
type LocationJSON struct {
	Key     string `json:"key"`
	City    string `json:"city,omitempty"`
	Region  string `json:"region,omitempty"`
	Country string `json:"country,omitempty"`
	Display string `json:"display"`
}

func locationJSON(l geo.Location) LocationJSON {
	return LocationJSON{
		Key:     l.Key(),
		City:    l.City,
		Region:  l.Region,
		Country: l.Country,
		Display: l.String(),
	}
}

// QuantileJSON is one (percentile, latency) point.
type QuantileJSON struct {
	P  float64 `json:"p"`
	Ms float64 `json:"ms"`
}

// HistogramJSON is the fixed-bucket histogram of a distribution. Counts
// has one element per bin of width BinWidthMs starting at LoMs; Under and
// Over count samples outside [LoMs, HiMs).
type HistogramJSON struct {
	LoMs       float64 `json:"lo_ms"`
	HiMs       float64 `json:"hi_ms"`
	BinWidthMs float64 `json:"bin_width_ms"`
	Counts     []int   `json:"counts"`
	Under      int     `json:"under"`
	Over       int     `json:"over"`
}

// CDFJSON is the empirical CDF evaluated at the histogram bin edges.
type CDFJSON struct {
	AtMs []float64 `json:"at_ms"`
	P    []float64 `json:"p"`
}

// LatencyResponse is the /v1/latency response body.
type LatencyResponse struct {
	Location  LocationJSON   `json:"location"`
	Game      string         `json:"game"`
	N         int            `json:"n"`
	Streamers int            `json:"streamers"`
	MeanMs    float64        `json:"mean_ms"`
	StdMs     float64        `json:"std_ms"`
	MinMs     float64        `json:"min_ms"`
	MaxMs     float64        `json:"max_ms"`
	Quantiles []QuantileJSON `json:"quantiles"`
	Histogram HistogramJSON  `json:"histogram"`
	CDF       CDFJSON        `json:"cdf"`
}

// CompareSideJSON summarizes one side of a /v1/compare response.
type CompareSideJSON struct {
	Location LocationJSON `json:"location"`
	Game     string       `json:"game"`
	N        int          `json:"n"`
	MedianMs float64      `json:"median_ms"`
}

// CompareResponse is the /v1/compare response body: the 1-Wasserstein
// (earth mover's) distance between the two latency distributions, in ms.
type CompareResponse struct {
	A             CompareSideJSON `json:"a"`
	B             CompareSideJSON `json:"b"`
	WassersteinMs float64         `json:"wasserstein_ms"`
}

// newEntry computes the full read-optimized record for one {location, game}
// group; key is EntryKey of gk. It returns nil when the group's distribution
// has fewer than minPoints samples. Pure: depends only on its arguments.
func newEntry(key string, gk core.GroupKey, analyses []*core.Analysis,
	p core.Params, minPoints int) *Entry {
	dist := core.Distribution(analyses, p)
	if len(dist) < minPoints || len(dist) == 0 {
		return nil
	}
	sorted := append([]float64(nil), dist...)
	sort.Float64s(sorted)

	streamers := 0
	for _, a := range analyses {
		if a != nil && !a.Discarded && a.HighQuality {
			streamers++
		}
	}

	e := &Entry{
		Key:       key,
		Location:  gk.Loc,
		Game:      gk.Game,
		Sorted:    sorted,
		Streamers: streamers,
	}
	e.etag, e.binETag = e.computeETags()
	// Publish-time marshaling: both representations are rendered here, on
	// the builder's worker pool, so the request hot path never marshals.
	resp := e.computeResponse()
	e.body = mustMarshal(resp)
	e.binBody = EncodeLatencyBinary(&resp)
	return e
}

// computeResponse derives every served statistic from the sorted sample.
// All floats pass through stats.Sanitize so the result is always
// JSON-encodable (encoding/json errors on NaN/Inf).
func (e *Entry) computeResponse() LatencyResponse {
	mean, std := stats.MeanStd(e.Sorted)
	min, max, _ := stats.MinMaxOK(e.Sorted)

	qs := make([]QuantileJSON, 0, len(quantileProbs))
	for _, p := range quantileProbs {
		v, ok := stats.PercentileOK(e.Sorted, p)
		if !ok {
			v = 0
		}
		qs = append(qs, QuantileJSON{P: p, Ms: stats.Sanitize(v)})
	}

	const (
		lo, hi float64 = DefaultHistLoMs, DefaultHistHiMs
		bins           = DefaultHistBins
	)
	h := stats.NewHistogram(lo, hi, bins)
	h.AddAll(e.Sorted)
	width := (hi - lo) / float64(bins)

	edges := make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + width*float64(i)
	}
	cdf := stats.CDFAt(e.Sorted, edges)
	for i := range cdf {
		cdf[i] = stats.Sanitize(cdf[i])
	}

	return LatencyResponse{
		Location:  locationJSON(e.Location),
		Game:      e.Game,
		N:         len(e.Sorted),
		Streamers: e.Streamers,
		MeanMs:    stats.Sanitize(mean),
		StdMs:     stats.Sanitize(std),
		MinMs:     stats.Sanitize(min),
		MaxMs:     stats.Sanitize(max),
		Quantiles: qs,
		Histogram: HistogramJSON{
			LoMs:       lo,
			HiMs:       hi,
			BinWidthMs: width,
			Counts:     h.Counts,
			Under:      h.Under,
			Over:       h.Over,
		},
		CDF: CDFJSON{AtMs: edges, P: cdf},
	}
}

// computeETags hashes the entry's identity and full sample with FNV-64a.
// It is a pure function of the data, so serial and concurrent builds (and
// republishes of unchanged data) produce the same tags. The JSON tag is
// the historical "t1-" form; the binary representation shares the hash
// under a distinct "t1b-" prefix, keeping the two cache-incompatible.
func (e *Entry) computeETags() (jsonTag, binTag string) {
	h := fnv.New64a()
	h.Write([]byte(e.Key))                                     //nolint:errcheck — fnv never fails
	binary.Write(h, binary.LittleEndian, int64(e.Streamers))   //nolint:errcheck
	binary.Write(h, binary.LittleEndian, int64(len(e.Sorted))) //nolint:errcheck
	var buf [8]byte
	for _, v := range e.Sorted {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:]) //nolint:errcheck
	}
	sum := h.Sum64()
	return fmt.Sprintf("\"t1-%016x\"", sum), fmt.Sprintf("\"t1b-%016x\"", sum)
}

// combineETags derives the deterministic ETag of a response computed from
// two entries (/v1/compare).
func combineETags(a, b string) string {
	h := fnv.New64a()
	h.Write([]byte(a)) //nolint:errcheck
	h.Write([]byte{0}) //nolint:errcheck
	h.Write([]byte(b)) //nolint:errcheck
	return fmt.Sprintf("\"t1-%016x\"", h.Sum64())
}
