package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"tero/internal/imaging"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/ocr"
)

// span is one timed call into a layer. Name is "<layer>.<operation>", the
// layer being the internal/ package the call lands in (or "bench",
// "nethttp", "replaycdn" for the harness's own parts).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a pass's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. Traced passes drive the system from one
// goroutine with Concurrency 1, so the open spans form a stack and a new
// span's parent is the top of it; server-side handlers, which run on
// net/http's goroutines, attach to whatever the driving goroutine has open
// when the request arrives (openTop/record).
//
// A nil *tracer is tracing off: every method is a no-op, and the untraced
// passes install none of the decorators below.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	trace int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextTrace starts a new trace (one pass).
func (t *tracer) nextTrace() {
	t.mu.Lock()
	t.trace++
	t.stack = t.stack[:0]
	t.mu.Unlock()
}

func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: now})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes a span. Spans usually close in LIFO order; a response body
// closed by a deferred call may not, so the id is removed wherever it sits.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// openTop returns the innermost open span, for a handler goroutine to name
// as its parent, and the current clock.
func (t *tracer) openTop() (parent int, now int64) {
	now = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1], now
	}
	return -1, now
}

// record adds a finished span observed on another goroutine.
func (t *tracer) record(name string, parent int, start int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans), Parent: parent,
		Name: name, Start: start, End: now})
	t.mu.Unlock()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceSummary is the arithmetic over one trace: per span name the count
// and inclusive (busy) time, per layer the self time — a span's duration
// minus the part of it its children cover.
type traceSummary struct {
	wallNs int64
	busyNs map[string]int64
	count  map[string]int
	selfNs map[string]int64     // by layer
	durs   map[string][]float64 // per-span durations, ns
	spans  int

	selfByName map[string]int64
}

func (t *tracer) summarize(trace int) traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return summarizeSpans(t.spans, trace)
}

func summarizeSpans(spans []span, trace int) traceSummary {
	s := traceSummary{
		busyNs: map[string]int64{}, count: map[string]int{},
		selfNs: map[string]int64{}, durs: map[string][]float64{},
		selfByName: map[string]int64{},
	}
	covered := make(map[int]int64) // parent id -> ns covered by children
	for _, sp := range spans {
		if sp.Trace != trace || sp.Parent < 0 {
			continue
		}
		// A handler can return a few µs after its client saw the last
		// byte: count only the part inside the parent.
		p := spans[sp.Parent]
		a, b := sp.Start, sp.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			covered[sp.Parent] += b - a
		}
	}
	for _, sp := range spans {
		if sp.Trace != trace {
			continue
		}
		d := sp.End - sp.Start
		if sp.Parent < 0 {
			s.wallNs += d
		}
		s.busyNs[sp.Name] += d
		s.count[sp.Name]++
		s.durs[sp.Name] = append(s.durs[sp.Name], float64(d))
		self := d - covered[sp.ID]
		if self < 0 {
			self = 0
		}
		s.selfNs[layerOf(sp.Name)] += self
		s.selfByName[sp.Name] += self
		s.spans++
	}
	return s
}

// busyS is the inclusive time of every span whose name has the prefix.
func (s traceSummary) busyS(prefix string) float64 {
	var ns int64
	for name, d := range s.busyNs {
		if strings.HasPrefix(name, prefix) {
			ns += d
		}
	}
	return float64(ns) / 1e9
}

func (s traceSummary) calls(prefix string) int {
	n := 0
	for name, c := range s.count {
		if strings.HasPrefix(name, prefix) {
			n += c
		}
	}
	return n
}

func (s traceSummary) selfS(layer string) float64 { return float64(s.selfNs[layer]) / 1e9 }

// residual is the share of the wall time no named layer accounts for: the
// harness's own loop ("bench" self time).
func (s traceSummary) residual() float64 {
	if s.wallNs == 0 {
		return 0
	}
	return float64(s.selfNs["bench"]) / float64(s.wallNs)
}

// write dumps the spans of one trace as a JSON array.
func (t *tracer) write(path string, trace int) error {
	t.mu.Lock()
	var out []span
	for _, sp := range t.spans {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---- decorators, installed on traced passes only ----

// tracedKV times every key-value operation.
type tracedKV struct {
	kv kvstore.KV
	tr *tracer
}

var _ kvstore.KV = (*tracedKV)(nil)

func (k *tracedKV) Set(key, value string) {
	id := k.tr.start("kvstore.set")
	k.kv.Set(key, value)
	k.tr.end(id)
}
func (k *tracedKV) Get(key string) (string, bool) {
	id := k.tr.start("kvstore.get")
	defer k.tr.end(id)
	return k.kv.Get(key)
}
func (k *tracedKV) Del(key string) bool {
	id := k.tr.start("kvstore.del")
	defer k.tr.end(id)
	return k.kv.Del(key)
}
func (k *tracedKV) HSet(key, field, value string) bool {
	id := k.tr.start("kvstore.hset")
	defer k.tr.end(id)
	return k.kv.HSet(key, field, value)
}
func (k *tracedKV) HGet(key, field string) (string, bool) {
	id := k.tr.start("kvstore.hget")
	defer k.tr.end(id)
	return k.kv.HGet(key, field)
}
func (k *tracedKV) HDel(key, field string) bool {
	id := k.tr.start("kvstore.hdel")
	defer k.tr.end(id)
	return k.kv.HDel(key, field)
}
func (k *tracedKV) HGetAll(key string) map[string]string {
	id := k.tr.start("kvstore.hgetall")
	defer k.tr.end(id)
	return k.kv.HGetAll(key)
}
func (k *tracedKV) RPush(key string, values ...string) int {
	id := k.tr.start("kvstore.rpush")
	defer k.tr.end(id)
	return k.kv.RPush(key, values...)
}
func (k *tracedKV) LPop(key string) (string, bool) {
	id := k.tr.start("kvstore.lpop")
	defer k.tr.end(id)
	return k.kv.LPop(key)
}
func (k *tracedKV) LLen(key string) int {
	id := k.tr.start("kvstore.llen")
	defer k.tr.end(id)
	return k.kv.LLen(key)
}

// tracedObj times every object-store operation and counts bytes put.
type tracedObj struct {
	api      objstore.API
	tr       *tracer
	mu       sync.Mutex
	bytesPut int64
}

var _ objstore.API = (*tracedObj)(nil)

func (o *tracedObj) Put(bucket, key string, data []byte, meta map[string]string) string {
	id := o.tr.start("objstore.put")
	defer o.tr.end(id)
	o.mu.Lock()
	o.bytesPut += int64(len(data))
	o.mu.Unlock()
	return o.api.Put(bucket, key, data, meta)
}
func (o *tracedObj) Get(bucket, key string) (*objstore.Object, error) {
	id := o.tr.start("objstore.get")
	defer o.tr.end(id)
	return o.api.Get(bucket, key)
}
func (o *tracedObj) Head(bucket, key string) (*objstore.Object, error) {
	id := o.tr.start("objstore.head")
	defer o.tr.end(id)
	return o.api.Head(bucket, key)
}
func (o *tracedObj) Delete(bucket, key string) error {
	id := o.tr.start("objstore.delete")
	defer o.tr.end(id)
	return o.api.Delete(bucket, key)
}
func (o *tracedObj) List(bucket, prefix string) []string {
	id := o.tr.start("objstore.list")
	defer o.tr.end(id)
	return o.api.List(bucket, prefix)
}
func (o *tracedObj) Size(bucket string) int {
	id := o.tr.start("objstore.size")
	defer o.tr.end(id)
	return o.api.Size(bucket)
}

// tracedEngine times one OCR engine's Recognize calls.
type tracedEngine struct {
	ocr.Engine
	tr   *tracer
	name string
}

func traceEngines(engines []ocr.Engine, tr *tracer) []ocr.Engine {
	out := make([]ocr.Engine, len(engines))
	for i, e := range engines {
		out[i] = &tracedEngine{Engine: e, tr: tr, name: "ocr." + e.Name()}
	}
	return out
}

func (e *tracedEngine) Recognize(img *imaging.Gray) ocr.Result {
	id := e.tr.start(e.name)
	defer e.tr.end(id)
	return e.Engine.Recognize(img)
}

// tracedRT times an HTTP exchange from the request leaving to the response
// body reaching EOF (or being closed), which on loopback is where the
// transfer cost is.
type tracedRT struct {
	base http.RoundTripper
	tr   *tracer
	name string

	mu    sync.Mutex
	bytes int64
}

func (rt *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := rt.tr.start(rt.name)
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.tr.end(id)
		return nil, err
	}
	resp.Body = &tracedBody{rc: resp.Body, rt: rt, id: id}
	return resp, nil
}

type tracedBody struct {
	rc   io.ReadCloser
	rt   *tracedRT
	id   int
	n    int64
	done bool
}

func (b *tracedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.rt.mu.Lock()
	b.rt.bytes += b.n
	b.rt.mu.Unlock()
	b.rt.tr.end(b.id)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}
