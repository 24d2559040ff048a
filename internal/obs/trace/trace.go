// Package trace is Tero's end-to-end tracing layer: context-propagated
// spans with trace ID + parent/child causality, deterministic FNV-64a IDs
// from a seeded source, wall *and* virtual-clock timestamps (the pipeline
// runs on virtual time), a bounded tail-sampled trace store, and a
// /debug/traces endpoint mounted on obs.DebugServer.
//
// Two trace shapes exist:
//
//   - Request traces (StartTrace / StartStage / StartRemoteChild): rooted
//     at one operation — a serve HTTP request, a pipeline stage run — and
//     finalized automatically when their last live local span ends.
//     `traceparent` header propagation lets a client's span and the
//     server's request span share one trace.
//
//   - Journey traces (StartJourney): rooted at a thumbnail CDN fetch and
//     accumulating spans across pipeline stages (extract → analyze →
//     publish) as the reading moves through the system; finalized
//     explicitly by Finish when the reading becomes queryable (or is
//     dropped). Their span context travels as a traceparent value in
//     object-store metadata and measurement documents, not in a
//     context.Context — the stages run in different ticks.
//
// There is one span type. A stage span (StartStage) also feeds the
// span_seconds{stage=…} histogram, tracing or not; every other span exists
// only while tracing is on.
//
// Tracing is off by default and costs one atomic load on instrumented hot
// paths when disabled; Span methods are nil-safe so call sites need no
// second guard. Tail sampling (see Store) decides retention only after a
// trace completes, so the slowest trace per root stage and every error
// trace always survive.
package trace

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"time"

	"tero/internal/obs"
)

// Context identifies a span's position in a trace: which trace, and which
// span new children should attach to.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real span.
func (c Context) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Attr is one span attribute.
type Attr struct{ Key, Value string }

// A returns an attribute — shorthand keeping call sites one-line.
func A(k, v string) Attr { return Attr{k, v} }

// IDSource derives span and trace IDs deterministically: FNV-64a over the
// seed and a monotone counter. Same seed + same allocation order (serial
// pipeline) ⇒ same IDs, which is what makes trace trees diffable across
// runs and lets tests pin them.
type IDSource struct {
	seed uint64
	ctr  atomic.Uint64
}

// NewIDSource returns a source seeded for deterministic ID generation.
func NewIDSource(seed uint64) *IDSource { return &IDSource{seed: seed} }

// Next returns the next non-zero 64-bit ID.
func (s *IDSource) Next() uint64 {
	for {
		n := s.ctr.Add(1)
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], s.seed)
		binary.LittleEndian.PutUint64(buf[8:], n)
		h := fnv.New64a()
		h.Write(buf[:]) //nolint:errcheck — hash.Write never fails
		if id := h.Sum64(); id != 0 {
			return id
		}
	}
}

// Global tracer state. Enabled is the single hot-path gate; everything
// else is only touched once tracing is on.
var (
	enabled  atomic.Bool
	store    atomic.Pointer[Store]
	ids      atomic.Pointer[IDSource]
	vclock   atomic.Pointer[func() time.Time]
	tlog     = obs.L("trace")
	spanLog  = obs.L("span")
	mStarted = obs.C("trace_spans_started_total")
)

func init() {
	// A store and ID source always exist so Enable(seed) is the only
	// required setup and races with late Enable calls stay harmless.
	store.Store(NewStore(DefaultStoreConfig()))
	ids.Store(NewIDSource(1))
}

// Enable turns tracing on with a fresh deterministic ID source and a fresh
// store. Sampling keeps its configured rate (SetSampleN).
func Enable(seed uint64) {
	st := ActiveStore()
	cfg := st.cfg
	store.Store(NewStore(cfg))
	ids.Store(NewIDSource(seed))
	enabled.Store(true)
	tlog.Info("tracing enabled", "seed", seed, "sample_1_in", cfg.SampleN)
}

// Disable turns tracing off. The store keeps its contents for inspection.
func Disable() { enabled.Store(false) }

// Enabled reports whether tracing is on — the one check hot paths make.
func Enabled() bool { return enabled.Load() }

// SetSampleN keeps 1 in n unremarkable traces (error and slowest-per-stage
// traces are always kept). n <= 1 keeps everything.
func SetSampleN(n int) { ActiveStore().setSampleN(n) }

// SetVirtualClock installs the pipeline's virtual clock; spans started
// afterwards carry virtual timestamps alongside wall ones. Pass nil to
// clear.
func SetVirtualClock(fn func() time.Time) {
	if fn == nil {
		vclock.Store(nil)
		return
	}
	vclock.Store(&fn)
}

// virtualNow returns the virtual time, or zero when no clock is installed.
func virtualNow() time.Time {
	if fn := vclock.Load(); fn != nil {
		return (*fn)()
	}
	return time.Time{}
}

// ActiveStore returns the store traces are being recorded into.
func ActiveStore() *Store { return store.Load() }

// Span is one live span. A nil *Span is inert: every method no-ops, so
// disabled-tracing call sites carry no branches beyond the Enabled check
// that returned nil. A stage span (StartStage) is never nil; started with
// tracing off it belongs to no trace (zero ctx) and only times its stage.
type Span struct {
	ctx    Context
	parent uint64
	name   string
	attrs  []Attr
	start  time.Time
	vstart time.Time
	err    string
	ended  atomic.Bool
	stage  bool // End observes span_seconds{stage=name}
}

// StartStage begins timing a pipeline stage. Its End always records the
// duration into the stage's histogram (`span_seconds{stage=...}` in the
// Default registry) and, when the global log level admits trace, emits a
// trace line; with tracing on the span is additionally the root of an
// auto-finalized trace, so instrumented stages keep their aggregate timings
// and also appear as traces.
func StartStage(name string, attrs ...Attr) *Span {
	s := StartTrace(name, attrs...)
	if s == nil {
		s = &Span{name: name, start: time.Now()}
	}
	s.stage = true
	return s
}

// StartTrace begins a new auto-finalized trace rooted at name: when the
// root (and any local children still open) have ended, the trace is offered
// to the store's tail sampler.
func StartTrace(name string, attrs ...Attr) *Span {
	if !Enabled() {
		return nil
	}
	src := ids.Load()
	c := Context{TraceID: src.Next(), SpanID: src.Next()}
	ActiveStore().openTrace(c.TraceID, true)
	return newSpan(c, 0, name, attrs)
}

// StartJourney begins a new manually finalized trace rooted at name — the
// per-reading journey shape. The caller (or a later pipeline stage holding
// the propagated Context) must call Finish.
func StartJourney(name string, attrs ...Attr) *Span {
	if !Enabled() {
		return nil
	}
	src := ids.Load()
	c := Context{TraceID: src.Next(), SpanID: src.Next()}
	ActiveStore().openTrace(c.TraceID, false)
	return newSpan(c, 0, name, attrs)
}

// StartRemoteChild begins a span under a propagated parent context (a
// traceparent header, object metadata). If the trace is not live locally —
// the parent came from a foreign process like a bare curl — a local
// auto-finalized trace is opened for it, so the server half still lands in
// the store.
func StartRemoteChild(parent Context, name string, attrs ...Attr) *Span {
	if !Enabled() || !parent.Valid() {
		return nil
	}
	ActiveStore().joinTrace(parent.TraceID)
	return newSpan(Context{TraceID: parent.TraceID, SpanID: ids.Load().Next()},
		parent.SpanID, name, attrs)
}

func newSpan(c Context, parent uint64, name string, attrs []Attr) *Span {
	mStarted.Inc()
	return &Span{
		ctx: c, parent: parent, name: name, attrs: attrs,
		start: time.Now(), vstart: virtualNow(),
	}
}

// Context returns the span's trace position (zero for nil spans) — what
// gets propagated into headers, object metadata, or documents.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// SetAttr adds an attribute. Nil-safe, not synchronized: attributes belong
// to the goroutine driving the span.
func (s *Span) SetAttr(k, v string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{k, v})
	}
}

// SetError marks the span (and so its trace) as failed; error traces are
// always retained by the tail sampler.
func (s *Span) SetError(msg string) {
	if s != nil {
		s.err = msg
	}
}

// End stops the span and returns its duration, clamped to be non-negative
// (the monotonic clock makes this a formality). Nil-safe, and safe to call
// repeatedly or from several goroutines at once — a handler's defer racing
// a timeout path, say: the CAS lets exactly one caller record, the rest
// return 0. A span in a trace is recorded into the store, and if it was the
// last live span of an auto-finalized trace, the trace is finalized; a stage
// span observes its histogram.
func (s *Span) End() time.Duration {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	end := time.Now()
	d := max(end.Sub(s.start), 0)
	if s.ctx.Valid() {
		st := ActiveStore()
		st.addSpan(SpanData{
			TraceID: s.ctx.TraceID, SpanID: s.ctx.SpanID, ParentID: s.parent,
			Name: s.name, Attrs: s.attrs,
			Start: s.start, End: end,
			VStart: s.vstart, VEnd: virtualNow(),
			Err: s.err,
		})
		st.leaveTrace(s.ctx.TraceID)
	}
	if s.stage {
		obs.H(obs.Lbl("span_seconds", "stage", s.name), obs.DurationBuckets).Observe(d.Seconds())
		if spanLog.Enabled(obs.LevelTrace) {
			spanLog.Trace("span", "stage", s.name, "dur", d)
		}
	}
	return d
}

// RecordSpan stores an already-timed span under a propagated parent — how
// the pipeline's serial merge loops attach per-item spans measured by
// parallel workers without the workers touching the store (ID allocation
// stays in deterministic merge order). Returns the recorded span's context
// so callers can chain further children onto it.
func RecordSpan(parent Context, name string, start, end time.Time, errMsg string, attrs ...Attr) Context {
	if !Enabled() || !parent.Valid() {
		return Context{}
	}
	mStarted.Inc()
	c := Context{TraceID: parent.TraceID, SpanID: ids.Load().Next()}
	ActiveStore().addSpan(SpanData{
		TraceID: c.TraceID, SpanID: c.SpanID, ParentID: parent.SpanID,
		Name: name, Attrs: attrs,
		Start: start, End: end,
		VStart: virtualNow(), VEnd: virtualNow(),
		Err: errMsg,
	})
	return c
}

// Finish finalizes a journey trace: the tail sampler decides retention.
// Safe to call for unknown or already-finished IDs (no-op).
func Finish(traceID uint64) {
	if traceID != 0 {
		ActiveStore().finish(traceID)
	}
}
