// Package obs is Tero's observability layer: a concurrent-safe metrics
// registry (counters, gauges, fixed-bucket histograms with quantile
// snapshots), leveled structured key=value logging with per-component
// loggers, lightweight spans for timing pipeline stages, and an optional
// debug HTTP server exposing /metrics and /debug/pprof/.
//
// The package is stdlib-only and always-on: instrumentation throughout the
// repo records into the Default registry unconditionally (atomic adds are
// cheap), and observability never changes what the pipeline computes —
// experiment tables are byte-identical with metrics collected, reported, or
// ignored. Reporting is opt-in (the -metrics and -debug-addr flags of
// cmd/tero and cmd/teroexp).
//
// Metric naming follows `component_noun_unit[_total]{label=value}`:
// counters end in _total, durations are histograms in seconds, and label
// pairs are rendered into the name with Lbl (the registry itself is
// label-agnostic — a labeled metric is just a distinct name).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram accumulates observations into fixed buckets. Quantiles are
// estimated by linear interpolation inside the bucket holding the target
// rank, clamped to the observed min/max, so they are exact at the bucket
// boundaries and monotone in q.
//
// Each bucket additionally carries an exemplar slot: ObserveExemplar stores
// an opaque reference (in practice a trace ID) alongside the observation,
// so a histogram's tail buckets always name the most recent trace that
// landed there — the link from a p99 on /metrics to a stored trace.
type Histogram struct {
	bounds    []float64 // sorted upper bounds; an implicit +Inf bucket follows
	buckets   []atomic.Int64
	exemplars []atomic.Uint64 // last ObserveExemplar ref per bucket; 0 = unset
	count     atomic.Int64
	sumBits   atomic.Uint64
	minBits   atomic.Uint64 // math.Float64bits of observed min; initialized to +Inf
	maxBits   atomic.Uint64 // observed max; initialized to -Inf
}

// DurationBuckets is the default bucket layout for second-valued duration
// histograms: exponential from 100µs to 60s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// LinearBuckets returns count buckets of the given width starting at start.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		bounds:    bs,
		buckets:   make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Uint64, len(bs)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar records one value and tags its bucket with ref (an
// opaque exemplar reference, in practice a trace ID). ref 0 observes
// without tagging, so disabled-tracing callers pay nothing extra.
func (h *Histogram) ObserveExemplar(v float64, ref uint64) {
	h.Observe(v)
	if ref != 0 && !math.IsNaN(v) {
		h.exemplars[sort.SearchFloat64s(h.bounds, v)].Store(ref)
	}
}

// Exemplar is one lit bucket's latest exemplar reference.
type Exemplar struct {
	LE  float64 // bucket upper bound; +Inf for the overflow bucket
	Ref uint64
}

// Exemplars returns the lit exemplar slots in ascending bucket order.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := range h.exemplars {
		if ref := h.exemplars[i].Load(); ref != 0 {
			_, hi := h.bucketRange(i)
			out = append(out, Exemplar{LE: hi, Ref: ref})
		}
	}
	return out
}

// CountLE returns the number of observations in buckets whose upper bound
// is <= bound — exact when bound is a bucket boundary, which is how SLI
// threshold ratios are meant to be declared.
func (h *Histogram) CountLE(bound float64) int64 {
	var n int64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		n += h.buckets[i].Load()
	}
	return n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min and Max return the observed extremes (NaN before any observation).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.minBits.Load())
}

func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts.
// Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		lo, hi := h.bucketRange(i)
		// Clamp the interpolation range to what was actually observed, so
		// a single observation reports itself at every quantile.
		if min := math.Float64frombits(h.minBits.Load()); lo < min {
			lo = min
		}
		if max := math.Float64frombits(h.maxBits.Load()); hi > max {
			hi = max
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - cum) / n
		return lo + (hi-lo)*frac
	}
	return math.Float64frombits(h.maxBits.Load())
}

// bucketRange returns bucket i's [lower, upper] value range.
func (h *Histogram) bucketRange(i int) (lo, hi float64) {
	if i == 0 {
		lo = math.Inf(-1)
	} else {
		lo = h.bounds[i-1]
	}
	if i == len(h.bounds) {
		hi = math.Inf(1)
	} else {
		hi = h.bounds[i]
	}
	return lo, hi
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
		h.exemplars[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// Registry is a concurrent-safe set of named metrics. Metric handles
// returned by Counter/Gauge/Histogram stay valid forever: Reset zeroes
// metrics in place rather than dropping them, so packages may cache handles
// in globals.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the registry all of Tero's instrumentation records into.
var Default = NewRegistry()

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// are used only on first creation; later calls with different bounds get
// the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every metric in place. Handles held by instrumented packages
// remain registered and usable — tests call this between runs.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.histograms {
		h.reset()
	}
}

// HistSnap is a point-in-time histogram summary.
type HistSnap struct {
	Count         int64
	Sum, Min, Max float64
	P50, P90, P99 float64
	// Exemplars holds the lit exemplar slots (ascending bucket order);
	// empty for histograms never fed through ObserveExemplar.
	Exemplars []Exemplar
}

// Snap is a point-in-time copy of a registry's metrics.
type Snap struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistSnap
}

// Snapshot copies all current metric values.
func (r *Registry) Snapshot() Snap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snap{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnap, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = HistSnap{
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
			Exemplars: h.Exemplars(),
		}
	}
	return s
}

// WriteText renders a human-readable metrics dump, sorted by kind and name.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if h.Count == 0 {
			if _, err := fmt.Fprintf(w, "histogram %s count=0\n", n); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w,
			"histogram %s count=%d sum=%.6g min=%.6g p50=%.6g p90=%.6g p99=%.6g max=%.6g\n",
			n, h.Count, h.Sum, h.Min, h.P50, h.P90, h.P99, h.Max); err != nil {
			return err
		}
		for _, ex := range h.Exemplars {
			le := fmt.Sprintf("%g", ex.LE)
			if math.IsInf(ex.LE, 1) {
				le = "+Inf"
			}
			if _, err := fmt.Fprintf(w, "exemplar %s le=%s trace=%016x\n",
				n, le, ex.Ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// Package-level shorthands against the Default registry.

// C returns the named counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns the named gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns the named histogram from the Default registry.
func H(name string, bounds []float64) *Histogram { return Default.Histogram(name, bounds) }

// Reset zeroes the Default registry in place.
func Reset() { Default.Reset() }

// Lbl renders a metric name with label pairs: Lbl("x_total", "k", "v")
// is "x_total{k=v}". Pairs are rendered in argument order; values
// containing '{', '}', ',' or '=' are sanitized to '_'.
func Lbl(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(sanitizeLabel(kv[i]))
		sb.WriteByte('=')
		sb.WriteString(sanitizeLabel(kv[i+1]))
	}
	sb.WriteByte('}')
	return sb.String()
}

func sanitizeLabel(s string) string {
	if !strings.ContainsAny(s, "{},=") {
		return s
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case '{', '}', ',', '=':
			return '_'
		}
		return r
	}, s)
}
