package obs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Mix handle reuse with registry lookups: both paths must be
				// concurrent-safe and hit the same counter.
				if i%2 == 0 {
					c.Inc()
				} else {
					reg.Counter("c_total").Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth")
	g.Set(4)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", LinearBuckets(10, 10, 10)) // 10..100 by 10
	// 1..100: quantiles are known exactly up to bucket interpolation error
	// (≤ one bucket width).
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 5050 {
		t.Fatalf("sum = %g", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.25, 25}, {0.99, 99}, {1, 100}, {0, 1},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 10 {
			t.Errorf("q%.2f = %g, want ~%g", tc.q, got, tc.want)
		}
	}
	// Monotone in q.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%.2f gives %g after %g", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := newHistogram(DurationBuckets)
	h.Observe(0.042)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); math.Abs(got-0.042) > 1e-9 {
			t.Fatalf("q%g = %g, want 0.042 exactly (min/max clamp)", q, got)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(DurationBuckets)
	if !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Min()) || !math.IsNaN(h.Max()) {
		t.Fatal("empty histogram must report NaN")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LinearBuckets(0, 1, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(g))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if h.Min() != 0 || h.Max() != 7 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
}

func TestResetKeepsHandles(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("kept_total")
	c.Add(7)
	reg.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset counter = %d, want 0", c.Value())
	}
	c.Inc()
	if got := reg.Snapshot().Counters["kept_total"]; got != 1 {
		t.Fatalf("handle detached from registry after Reset: snapshot = %d", got)
	}
}

func TestLbl(t *testing.T) {
	if got := Lbl("x_total", "stage", "tick"); got != "x_total{stage=tick}" {
		t.Fatalf("Lbl = %q", got)
	}
	if got := Lbl("x", "a", "1", "b", "2"); got != "x{a=1,b=2}" {
		t.Fatalf("Lbl = %q", got)
	}
	if got := Lbl("x", "k", "a=b,c"); got != "x{k=a_b_c}" {
		t.Fatalf("Lbl sanitize = %q", got)
	}
	if got := Lbl("bare"); got != "bare" {
		t.Fatalf("Lbl no kv = %q", got)
	}
}

func TestWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(2)
	reg.Counter("a_total").Inc()
	reg.Gauge("depth").Set(3.5)
	reg.Histogram("lat", LinearBuckets(0, 1, 4)).Observe(2)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"counter a_total 1",
		"counter b_total 2",
		"gauge depth 3.5",
		"histogram lat count=1",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("WriteText missing %q in:\n%s", w, out)
		}
	}
	// Counters sorted before gauges before histograms, names sorted within.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Errorf("names not sorted:\n%s", out)
	}
}

func TestLoggerLevelsAndFormat(t *testing.T) {
	var buf bytes.Buffer
	prevW := SetLogOutput(&buf)
	prevL := SetLogLevel(LevelDebug)
	defer func() { SetLogOutput(prevW); SetLogLevel(prevL) }()

	lg := L("testcomp")
	lg.Trace("dropped")
	lg.Debug("kept", "k", 1)
	lg.Info("spaced value", "err", io.ErrUnexpectedEOF, "dur", 1500*time.Millisecond)
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("trace line emitted below level:\n%s", out)
	}
	for _, w := range []string{
		"level=debug comp=testcomp msg=kept k=1",
		`msg="spaced value"`,
		`err="unexpected EOF"`,
		"dur=1.5s",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("log output missing %q in:\n%s", w, out)
		}
	}
	// Every line carries a timestamp.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "ts=") {
			t.Errorf("line missing ts= prefix: %q", line)
		}
	}
}

func TestLoggerSilencedSink(t *testing.T) {
	var buf bytes.Buffer
	prevW := SetLogOutput(&buf)
	prevL := SetLogLevel(LevelOff)
	defer func() { SetLogOutput(prevW); SetLogLevel(prevL) }()
	L("x").Error("must not appear")
	if buf.Len() != 0 {
		t.Fatalf("LevelOff still wrote: %q", buf.String())
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	prevW := SetLogOutput(&buf)
	prevL := SetLogLevel(LevelInfo)
	defer func() { SetLogOutput(prevW); SetLogLevel(prevL) }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				L("conc").Info("line", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, "msg=line") {
			t.Fatalf("interleaved/corrupt line: %q", line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"trace": LevelTrace, "DEBUG": LevelDebug, "info": LevelInfo,
		"warning": LevelWarn, "error": LevelError, "off": LevelOff,
	} {
		got, ok := ParseLevel(s)
		if !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseLevel("bogus"); ok {
		t.Error("ParseLevel accepted bogus level")
	}
}
