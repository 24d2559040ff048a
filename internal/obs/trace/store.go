package trace

import (
	"sort"
	"sync"
	"time"

	"tero/internal/obs"
)

// SpanData is one finished span as stored.
type SpanData struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 = trace root
	Name     string
	Attrs    []Attr
	Start    time.Time // wall clock
	End      time.Time
	VStart   time.Time // virtual clock; zero when no clock installed
	VEnd     time.Time
	Err      string
}

// Trace is one finalized, immutable trace: its spans in end order plus the
// precomputed extent and the reason the tail sampler kept it.
type Trace struct {
	ID     uint64
	Root   string // root span name; "?" when the root span never arrived
	Spans  []SpanData
	Start  time.Time // wall extent over all spans
	End    time.Time
	VStart time.Time // virtual extent (zero when never stamped)
	VEnd   time.Time
	Err    bool
	Reason string // "error" | "slowest" | "sampled"
}

// Duration is the trace's wall extent — for journeys, fetch to publish.
func (t *Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// StoreConfig bounds the trace store.
type StoreConfig struct {
	// SampleN keeps 1 in SampleN unremarkable traces (<=1 keeps all).
	SampleN int
	// Ring is the capacity of the sampled-trace ring.
	Ring int
	// ErrRing is the capacity of the dedicated error-trace ring, so a burst
	// of healthy traffic cannot evict the failures worth debugging.
	ErrRing int
	// MaxPending bounds traces still accumulating spans; the oldest pending
	// trace is force-finalized when a new one would exceed the bound.
	MaxPending int
	// MaxSpans bounds spans per trace; beyond it spans are dropped+counted.
	MaxSpans int
}

// DefaultStoreConfig is the production shape: a few hundred traces, always
// keeping errors and per-stage slowest.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{SampleN: 16, Ring: 192, ErrRing: 64, MaxPending: 1024, MaxSpans: 256}
}

func (c StoreConfig) withDefaults() StoreConfig {
	d := DefaultStoreConfig()
	if c.SampleN == 0 {
		c.SampleN = d.SampleN
	}
	if c.Ring <= 0 {
		c.Ring = d.Ring
	}
	if c.ErrRing <= 0 {
		c.ErrRing = d.ErrRing
	}
	if c.MaxPending <= 0 {
		c.MaxPending = d.MaxPending
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = d.MaxSpans
	}
	return c
}

// pendingTrace accumulates spans until finalization.
type pendingTrace struct {
	spans   []SpanData
	seq     uint64 // admission order, for oldest-first forced eviction
	open    int    // live local spans (auto mode)
	auto    bool   // finalize when open drains to zero
	started bool   // at least one span arrived
	dropped int    // spans dropped over MaxSpans
}

// Store collects spans into traces and tail-samples finalized traces into
// bounded rings. Retention policy, in priority order:
//
//  1. error traces — kept in their own ring;
//  2. the slowest trace per root-span name — pinned, one per stage, so the
//     worst journey/request per stage is always inspectable;
//  3. 1 in SampleN of everything else, decided deterministically from the
//     trace ID so reruns keep the same traces.
//
// Everything is bounded: pending traces, spans per trace, both rings.
type Store struct {
	cfg StoreConfig

	mu      sync.Mutex
	pending map[uint64]*pendingTrace
	seq     uint64
	ring    []*Trace // sampled+slowest, ring buffer
	ringAt  int
	errRing []*Trace // error traces, ring buffer
	errAt   int
	slowest map[string]*Trace // per root name; pinned against eviction
	sampleN int
}

// Store metrics (Default registry): decisions are cheap to count and make
// sampling behavior observable on /metrics.
var (
	mKept        = obs.C("trace_traces_kept_total")
	mDropped     = obs.C("trace_traces_dropped_total")
	mSpanOverrun = obs.C("trace_spans_dropped_total")
	mForced      = obs.C("trace_pending_evicted_total")
	gPending     = obs.G("trace_pending_traces")
)

// NewStore returns an empty store with the given bounds.
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:     cfg,
		pending: make(map[uint64]*pendingTrace),
		ring:    make([]*Trace, 0, cfg.Ring),
		errRing: make([]*Trace, 0, cfg.ErrRing),
		slowest: make(map[string]*Trace),
		sampleN: cfg.SampleN,
	}
}

func (st *Store) setSampleN(n int) {
	st.mu.Lock()
	st.sampleN = n
	st.mu.Unlock()
}

// openTrace admits a new trace (auto or manual finalization).
func (st *Store) openTrace(tid uint64, auto bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.admit(tid, auto)
}

// joinTrace marks one more live local span on a trace, admitting it if the
// trace is foreign (remote parent never seen locally).
func (st *Store) joinTrace(tid uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.admit(tid, true)
}

// admit returns the pending entry for tid, creating (and bounding) it.
// Caller holds st.mu.
func (st *Store) admit(tid uint64, auto bool) *pendingTrace {
	p, ok := st.pending[tid]
	if !ok {
		if len(st.pending) >= st.cfg.MaxPending {
			st.evictOldestLocked()
		}
		st.seq++
		p = &pendingTrace{seq: st.seq, auto: auto}
		st.pending[tid] = p
		gPending.Set(float64(len(st.pending)))
	}
	p.open++
	return p
}

// evictOldestLocked force-finalizes the oldest pending trace — a journey
// whose reading never got published, typically.
func (st *Store) evictOldestLocked() {
	var oldID uint64
	var old *pendingTrace
	for id, p := range st.pending {
		if old == nil || p.seq < old.seq {
			oldID, old = id, p
		}
	}
	if old == nil {
		return
	}
	mForced.Inc()
	st.finishLocked(oldID)
}

// addSpan appends a finished span to its trace, admitting manually managed
// traces on first sight (journey children recorded via RecordSpan).
func (st *Store) addSpan(sd SpanData) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p, ok := st.pending[sd.TraceID]
	if !ok {
		// Span for a trace never opened here (or already finalized): admit a
		// manual-finalize bucket so late spans are not lost silently.
		p = st.admit(sd.TraceID, false)
		p.open--
	}
	p.started = true
	if len(p.spans) >= st.cfg.MaxSpans {
		p.dropped++
		mSpanOverrun.Inc()
		return
	}
	p.spans = append(p.spans, sd)
}

// leaveTrace drops one live local span; an auto trace with no spans left
// is finalized.
func (st *Store) leaveTrace(tid uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p, ok := st.pending[tid]
	if !ok {
		return
	}
	if p.open--; p.open <= 0 && p.auto && p.started {
		st.finishLocked(tid)
	}
}

// finish finalizes a trace explicitly (journeys).
func (st *Store) finish(tid uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finishLocked(tid)
}

// finishLocked runs the tail-sampling decision. Caller holds st.mu.
func (st *Store) finishLocked(tid uint64) {
	p, ok := st.pending[tid]
	if !ok || len(p.spans) == 0 {
		delete(st.pending, tid)
		gPending.Set(float64(len(st.pending)))
		return
	}
	delete(st.pending, tid)
	gPending.Set(float64(len(st.pending)))

	t := assemble(tid, p.spans)
	switch {
	case t.Err:
		t.Reason = "error"
		st.pushLocked(&st.errRing, &st.errAt, st.cfg.ErrRing, t)
		mKept.Inc()
	case st.slowest[t.Root] == nil || t.Duration() >= st.slowest[t.Root].Duration():
		prev := st.slowest[t.Root]
		t.Reason = "slowest"
		st.slowest[t.Root] = t
		mKept.Inc()
		if prev != nil {
			// The displaced trace gets the ordinary 1-in-N decision it was
			// never offered — otherwise retention would depend on the wall-
			// clock order slowest candidates arrive in, and SampleN 1
			// ("keep everything") would still lose traces.
			st.sampleLocked(prev, true)
		}
	default:
		st.sampleLocked(t, false)
	}
}

// sampleLocked applies the 1-in-N decision and rings or drops the trace.
// Deterministic in the trace ID, so replayed runs keep the same traces.
// counted: the trace was already tallied kept when it was pinned slowest.
func (st *Store) sampleLocked(t *Trace, counted bool) {
	if st.sampleN <= 1 || sampleHash(t.ID)%uint64(st.sampleN) == 0 {
		t.Reason = "sampled"
		st.pushLocked(&st.ring, &st.ringAt, st.cfg.Ring, t)
		if !counted {
			mKept.Inc()
		}
	} else {
		mDropped.Inc()
	}
}

// pushLocked appends to a ring, overwriting the oldest entry when full.
func (st *Store) pushLocked(ring *[]*Trace, at *int, cap int, t *Trace) {
	if len(*ring) < cap {
		*ring = append(*ring, t)
		return
	}
	(*ring)[*at] = t
	*at = (*at + 1) % cap
}

// sampleHash decorrelates sequential FNV trace IDs before the modulo
// (splitmix64 finalizer — raw FNV over a counter clumps).
func sampleHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// assemble builds the immutable Trace from its spans. The root is the
// first span with no local parent — ParentID 0, or a parent that never
// arrived (a foreign traceparent whose remote half lives elsewhere).
func assemble(tid uint64, spans []SpanData) *Trace {
	t := &Trace{ID: tid, Root: "?", Spans: spans}
	local := make(map[uint64]bool, len(spans))
	for i := range spans {
		local[spans[i].SpanID] = true
	}
	for i := range spans {
		s := &spans[i]
		if t.Root == "?" && (s.ParentID == 0 || !local[s.ParentID]) {
			t.Root = s.Name
		}
		if s.Err != "" {
			t.Err = true
		}
		if t.Start.IsZero() || s.Start.Before(t.Start) {
			t.Start = s.Start
		}
		if s.End.After(t.End) {
			t.End = s.End
		}
		if !s.VStart.IsZero() && (t.VStart.IsZero() || s.VStart.Before(t.VStart)) {
			t.VStart = s.VStart
		}
		if s.VEnd.After(t.VEnd) {
			t.VEnd = s.VEnd
		}
	}
	return t
}

// Traces returns every retained trace, newest extent first. Traces are
// immutable; the slice is fresh.
func (st *Store) Traces() []*Trace {
	st.mu.Lock()
	defer st.mu.Unlock()
	seen := make(map[uint64]bool, len(st.ring)+len(st.errRing)+len(st.slowest))
	out := make([]*Trace, 0, len(st.ring)+len(st.errRing)+len(st.slowest))
	add := func(t *Trace) {
		if !seen[t.ID] {
			seen[t.ID] = true
			out = append(out, t)
		}
	}
	for _, t := range st.errRing {
		add(t)
	}
	for _, t := range st.slowest {
		add(t)
	}
	for _, t := range st.ring {
		add(t)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].End.Equal(out[j].End) {
			return out[i].End.After(out[j].End)
		}
		return out[i].ID < out[j].ID // stable tiebreak for tests
	})
	return out
}

// Get returns a retained trace by ID.
func (st *Store) Get(id uint64) (*Trace, bool) {
	for _, t := range st.Traces() {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}
