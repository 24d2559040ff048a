package trace

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tero/internal/obs"
)

// restore resets the package globals after a test that enabled tracing.
func restore(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		Disable()
		SetVirtualClock(nil)
	})
}

func TestIDSourceDeterministic(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 100; i++ {
		av, bv := a.Next(), b.Next()
		if av != bv {
			t.Fatalf("id %d: %x != %x", i, av, bv)
		}
		if av == 0 {
			t.Fatalf("id %d is zero", i)
		}
	}
	c := NewIDSource(43)
	if a0, c0 := NewIDSource(42).Next(), c.Next(); a0 == c0 {
		t.Fatalf("different seeds produced the same first id %x", a0)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	c := Context{TraceID: 0xdeadbeef01020304, SpanID: 0x0a0b0c0d0e0f1011}
	h := Traceparent(c)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("malformed traceparent %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != c {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, c)
	}
	// Foreign 128-bit trace IDs: low 64 bits are used.
	got, ok = ParseTraceparent("00-11223344556677889900aabbccddeeff-0011223344556677-01")
	if !ok || got.TraceID != 0x9900aabbccddeeff || got.SpanID != 0x0011223344556677 {
		t.Fatalf("foreign parse: %+v ok=%v", got, ok)
	}
	// The extremes of both fields survive the trip.
	c = Context{TraceID: 1, SpanID: ^uint64(0)}
	if got, ok = ParseTraceparent(Traceparent(c)); !ok || got != c {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	for _, bad := range []string{"", "00", "00-zz-xx-01", "00-1234-5678-01", "not-a-context"} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	if Traceparent(Context{}) != "" {
		t.Error("Traceparent of an invalid context should be empty")
	}
	// Every untraced thumbnail carries the empty value through
	// ProcessThumbnails and workRound: rejecting it must cost nothing.
	if n := testing.AllocsPerRun(100, func() { ParseTraceparent("") }); n != 0 {
		t.Errorf(`ParseTraceparent("") allocates %v times, want 0`, n)
	}
}

func TestDisabledTracingIsInert(t *testing.T) {
	restore(t)
	Disable()
	s := StartTrace("x")
	if s != nil {
		t.Fatal("StartTrace returned a span while disabled")
	}
	// Every method must be nil-safe.
	s.SetAttr("k", "v")
	s.SetError("e")
	c := s.Child("y")
	if c != nil {
		t.Fatal("Child of nil span is non-nil")
	}
	c.End()
	s.End()
	if got := s.Context(); got.Valid() {
		t.Fatalf("nil span has valid context %+v", got)
	}

	// A stage span is never nil, but with tracing off it is a stopwatch
	// only: it belongs to no trace and its whole life touches no store.
	st := ActiveStore()
	stored, started := len(st.Traces()), mStarted.Value()
	sp := StartStage("inert.stage", A("k", "v"))
	if sp == nil || sp.Context().Valid() {
		t.Fatalf("stage span with tracing off: %v, context %+v", sp, sp.Context())
	}
	if c := sp.Child("y"); c != nil {
		t.Fatal("Child of an untraced stage span is non-nil")
	}
	sp.End()
	if ActiveStore() != st || st.Pending() != 0 || len(st.Traces()) != stored || mStarted.Value() != started {
		t.Fatalf("untraced stage span touched the store: pending %d, traces %d -> %d, spans started %d -> %d",
			st.Pending(), stored, len(st.Traces()), started, mStarted.Value())
	}
}

// stageModes runs a stage-span test once with tracing off (the span only
// times its stage) and once with it on (the span also roots a trace).
func stageModes(t *testing.T, fn func(t *testing.T, traced bool)) {
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			restore(t)
			Disable()
			if traced {
				Enable(7)
				SetSampleN(1)
			}
			fn(t, traced)
		})
	}
}

func TestSpanMonotonic(t *testing.T) {
	stageModes(t, func(t *testing.T, traced bool) {
		h := obs.H(obs.Lbl("span_seconds", "stage", "test.stage"), obs.DurationBuckets)
		base := h.Count()
		sp := StartStage("test.stage")
		time.Sleep(2 * time.Millisecond)
		d := sp.End()
		if d <= 0 {
			t.Fatalf("span duration = %v, want > 0", d)
		}
		if d2 := sp.End(); d2 != 0 {
			t.Fatalf("second End = %v, want 0 (idempotent)", d2)
		}
		if got := h.Count() - base; got != 1 {
			t.Fatalf("span histogram count = %d, want 1", got)
		}
		if h.Max() < 0.002 {
			t.Fatalf("span histogram max = %g, want >= 0.002", h.Max())
		}
		if tr, ok := ActiveStore().Get(sp.Context().TraceID); ok != traced || (traced && len(tr.Spans) != 1) {
			t.Fatalf("stored trace: ok=%v spans=%d, tracing %v", ok, len(tr.Spans), traced)
		}
		// Successive spans never record negative or decreasing-time artifacts.
		for i := 0; i < 10; i++ {
			if d := StartStage("test.mono").End(); d < 0 {
				t.Fatalf("negative span duration %v", d)
			}
		}
	})
}

// TestSpanEndConcurrent is the Span.End race regression: End from many
// goroutines (a handler's defer racing a timeout path, say) must record
// the span exactly once — one histogram sample and, when tracing, one
// stored span. Meaningful under -race.
func TestSpanEndConcurrent(t *testing.T) {
	stageModes(t, func(t *testing.T, traced bool) {
		h := obs.H(obs.Lbl("span_seconds", "stage", "race.stage"), obs.DurationBuckets)
		base := h.Count()
		const spans = 40
		for i := 0; i < spans; i++ {
			sp := StartStage("race.stage")
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sp.End()
				}()
			}
			wg.Wait()
			if !traced {
				continue
			}
			if tr, ok := ActiveStore().Get(sp.Context().TraceID); !ok || len(tr.Spans) != 1 {
				t.Fatalf("span %d: stored trace ok=%v with %d spans, want exactly 1", i, ok, len(tr.Spans))
			}
		}
		if got := h.Count() - base; got != spans {
			t.Fatalf("histogram observed %d spans, want %d (double End recorded)", got, spans)
		}
		if ActiveStore().Pending() != 0 {
			t.Fatalf("pending = %d after every span ended", ActiveStore().Pending())
		}
	})
}

func TestAutoTraceLifecycle(t *testing.T) {
	restore(t)
	Enable(7)
	root := StartTrace("stage.root")
	child := root.Child("stage.child")
	child.SetAttr("k", "v")
	child.End()
	if ActiveStore().Pending() != 1 {
		t.Fatalf("pending = %d before root end", ActiveStore().Pending())
	}
	root.End()
	if ActiveStore().Pending() != 0 {
		t.Fatalf("pending = %d after root end", ActiveStore().Pending())
	}
	tr, ok := ActiveStore().Get(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not retained (first trace should be slowest-per-root)")
	}
	if tr.Root != "stage.root" || len(tr.Spans) != 2 {
		t.Fatalf("root=%q spans=%d", tr.Root, len(tr.Spans))
	}
	// End is idempotent.
	root.End()
	if got := len(ActiveStore().Traces()); got != 1 {
		t.Fatalf("idempotent End grew the store to %d traces", got)
	}
}

func TestJourneyManualFinish(t *testing.T) {
	restore(t)
	Enable(7)
	j := StartJourney("download.fetch")
	j.End()
	if ActiveStore().Pending() != 1 {
		t.Fatal("journey finalized before Finish")
	}
	// A later stage chains spans through the propagated context.
	ec, _ := ParseTraceparent(Traceparent(j.Context()))
	now := time.Now()
	mid := RecordSpan(ec, "pipeline.extract", now, now.Add(time.Millisecond), "")
	RecordSpan(mid, "pipeline.publish", now, now.Add(2*time.Millisecond), "")
	Finish(ec.TraceID)
	tr, ok := ActiveStore().Get(ec.TraceID)
	if !ok {
		t.Fatal("journey not retained")
	}
	if len(tr.Spans) != 3 || tr.Root != "download.fetch" {
		t.Fatalf("spans=%d root=%q", len(tr.Spans), tr.Root)
	}
	if tr.Spans[1].ParentID != j.Context().SpanID {
		t.Fatal("extract span not parented to fetch span")
	}
	if tr.Spans[2].ParentID != mid.SpanID {
		t.Fatal("publish span not parented to extract span")
	}
}

func TestStoreTailSampling(t *testing.T) {
	st := NewStore(StoreConfig{SampleN: 1000000007, Ring: 8, ErrRing: 4, MaxPending: 64, MaxSpans: 16})
	now := time.Now()
	add := func(tid uint64, name, errMsg string, dur time.Duration) {
		st.openTrace(tid, false)
		st.addSpan(SpanData{TraceID: tid, SpanID: tid + 1, Name: name,
			Start: now, End: now.Add(dur), Err: errMsg})
		st.finish(tid)
	}
	// Error traces are always kept, whatever the sample rate.
	add(0x100, "req", "boom", time.Millisecond)
	// The slowest trace per root name is pinned.
	add(0x200, "req", "", 50*time.Millisecond)
	// Faster, same root, astronomically unlucky sample rate: dropped.
	add(0x300, "req", "", time.Millisecond)

	if _, ok := st.Get(0x100); !ok {
		t.Error("error trace evicted")
	}
	if tr, ok := st.Get(0x200); !ok || tr.Reason != "slowest" {
		t.Errorf("slowest trace not pinned (ok=%v)", ok)
	}
	if _, ok := st.Get(0x300); ok {
		t.Error("unremarkable trace kept despite sampleN")
	}

	// A new slowest replaces the pin; the old one is gone (not in any ring).
	add(0x400, "req", "", 80*time.Millisecond)
	if _, ok := st.Get(0x400); !ok {
		t.Error("new slowest not pinned")
	}
	if _, ok := st.Get(0x200); ok {
		t.Error("old slowest still retained")
	}
}

func TestStoreSampleRing(t *testing.T) {
	st := NewStore(StoreConfig{SampleN: 1, Ring: 4, ErrRing: 4, MaxPending: 64, MaxSpans: 16})
	now := time.Now()
	for i := uint64(1); i <= 10; i++ {
		st.openTrace(i, false)
		st.addSpan(SpanData{TraceID: i, SpanID: i * 100, Name: fmt.Sprintf("r%d", i),
			Start: now, End: now.Add(time.Duration(i) * time.Millisecond)})
		st.finish(i)
	}
	// SampleN 1 keeps everything, but each root pins its own slowest and the
	// ring holds 4 — bounded retention, newest survive.
	got := st.Traces()
	if len(got) != 10 {
		// every trace has a distinct root, so all are pinned as slowest
		t.Fatalf("retained %d traces, want 10 (distinct roots all pinned)", len(got))
	}
}

func TestStoreBoundsPendingAndSpans(t *testing.T) {
	st := NewStore(StoreConfig{SampleN: 1, Ring: 4, ErrRing: 2, MaxPending: 3, MaxSpans: 2})
	now := time.Now()
	for i := uint64(1); i <= 5; i++ {
		st.openTrace(i, false)
		st.addSpan(SpanData{TraceID: i, SpanID: i, Name: "n", Start: now, End: now})
	}
	if p := st.Pending(); p > 3 {
		t.Fatalf("pending %d exceeds MaxPending", p)
	}
	// Span overrun: third span on one trace is dropped.
	st.addSpan(SpanData{TraceID: 5, SpanID: 50, Name: "a", Start: now, End: now})
	st.addSpan(SpanData{TraceID: 5, SpanID: 51, Name: "b", Start: now, End: now})
	st.finish(5)
	if tr, ok := st.Get(5); ok && len(tr.Spans) > 2 {
		t.Fatalf("trace holds %d spans, want <= MaxSpans", len(tr.Spans))
	}
}

func TestRemoteChildJoinsForeignTrace(t *testing.T) {
	restore(t)
	Enable(7)
	parent := Context{TraceID: 0xabc, SpanID: 0xdef}
	s := StartRemoteChild(parent, "serve.request")
	if s.Context().TraceID != 0xabc {
		t.Fatalf("remote child trace id %x", s.Context().TraceID)
	}
	s.End()
	tr, ok := ActiveStore().Get(0xabc)
	if !ok {
		t.Fatal("foreign trace not finalized on last local span end")
	}
	// The local span's parent never arrived: it is still the displayed root.
	if tr.Root != "serve.request" {
		t.Fatalf("root = %q", tr.Root)
	}
}

func TestHTTPHandler(t *testing.T) {
	restore(t)
	Enable(7)
	SetSampleN(1)
	root := StartTrace("stage.http")
	root.Child("child").End()
	root.End()
	id := root.Context().TraceID

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "stage.http") {
		t.Fatalf("list: code %d body %.120q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		fmt.Sprintf("/debug/traces?id=%016x", id), nil))
	body := rec.Body.String()
	if rec.Code != 200 || !strings.Contains(body, `"children"`) ||
		!strings.Contains(body, `"child"`) {
		t.Fatalf("detail: code %d body %.200q", rec.Code, body)
	}

	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("missing id: code %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=zz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad id: code %d", rec.Code)
	}
}

// TestConcurrentSpans drives the whole API from many goroutines; run under
// -race this is the data-race regression for the trace layer.
func TestConcurrentSpans(t *testing.T) {
	restore(t)
	Enable(7)
	SetSampleN(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := StartTrace(fmt.Sprintf("g%d", g))
				c := root.Child("child")
				c.SetAttr("i", "x")
				// Concurrent End on the same span: exactly one records it.
				var ew sync.WaitGroup
				for k := 0; k < 3; k++ {
					ew.Add(1)
					go func() { defer ew.Done(); c.End() }()
				}
				ew.Wait()
				root.End()
				j := StartJourney("j")
				j.End()
				Finish(j.Context().TraceID)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				ActiveStore().Traces()
			}
		}
	}()
	wg.Wait()
	close(done)
	if ActiveStore().Pending() != 0 {
		t.Fatalf("pending = %d after all spans ended", ActiveStore().Pending())
	}
	// Double-End must not have produced 3-span traces.
	for _, tr := range ActiveStore().Traces() {
		if tr.Root != "j" && len(tr.Spans) != 2 {
			t.Fatalf("trace %x has %d spans, want 2", tr.ID, len(tr.Spans))
		}
	}
}

// FuzzParseTraceparent: the one trace-context decoder takes bytes from an
// HTTP header, a kv hash, object metadata, a measurement document and a
// result frame. It never panics, and whatever it accepts names a real span
// and survives re-rendering. The seed corpus in testdata/fuzz/ holds a
// valid value, wrong field widths, non-hex digits, zero IDs, a future
// version with extra fields, padding and the empty string; scripts/check.sh
// runs the target for a few seconds.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		c, ok := ParseTraceparent(h)
		if !ok {
			if c != (Context{}) {
				t.Fatalf("rejected %q yet returned %+v", h, c)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("accepted %q as the invalid context %+v", h, c)
		}
		if again, ok := ParseTraceparent(Traceparent(c)); !ok || again != c {
			t.Fatalf("%q parsed to %+v, which re-renders to %q and parses to %+v, %v",
				h, c, Traceparent(c), again, ok)
		}
	})
}
