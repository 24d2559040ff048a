package slo

import (
	"strings"
	"testing"
	"time"

	"tero/internal/obs"
)

// fakeClock is a manually-advanced clock for deterministic windows.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestCounterRatioBurn(t *testing.T) {
	obs.Reset()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	var good, bad float64
	o := &Objective{
		Name:   "avail",
		Target: 0.9, // budget 0.1 — easy numbers
		SLI: CounterRatio{
			Good: func() float64 { return good },
			Bad:  func() float64 { return bad },
		},
		Windows: []time.Duration{time.Minute, time.Hour},
		Clock:   clk.now,
	}

	// No events yet: good ratio defaults to 1, burn 0, healthy.
	st := o.Evaluate()
	if st.GoodRatio != 1 || !st.Healthy(1) {
		t.Fatalf("empty status = %+v, want ratio 1 healthy", st)
	}

	// 100 events, 5 bad → bad ratio 0.05, budget 0.1 → burn 0.5.
	good, bad = 95, 5
	clk.advance(30 * time.Second)
	st = o.Evaluate()
	if got := st.Windows[0].Burn; got < 0.49 || got > 0.51 {
		t.Fatalf("burn = %v, want 0.5", got)
	}
	if !st.Healthy(1) {
		t.Fatalf("burn 0.5 should be healthy: %v", st)
	}

	// 100 more events all bad in the next 30s: the 1-minute window spans
	// both deltas (105 bad ratio ≈ 0.525 → burn ≈ 5.25); unhealthy.
	bad += 100
	clk.advance(30 * time.Second)
	st = o.Evaluate()
	if st.Healthy(1) {
		t.Fatalf("hot burn reported healthy: %v", st)
	}
	if !strings.Contains(st.String(), "BURNING") {
		t.Fatalf("String() = %q, want BURNING", st.String())
	}

	// Half an hour of clean minutes later the short window cools off while
	// the hour window still covers the bad spell.
	for i := 0; i < 30; i++ {
		good += 10
		clk.advance(time.Minute)
		st = o.Evaluate()
	}
	if st.Windows[0].Burn != 0 {
		t.Fatalf("short window burn = %v after clean hour, want 0", st.Windows[0].Burn)
	}
	if st.Windows[1].Burn == 0 {
		t.Fatalf("long window should still remember the bad spell: %v", st)
	}
}

func TestHistogramThresholdSLI(t *testing.T) {
	obs.Reset()
	reg := obs.NewRegistry()
	h := reg.Histogram("fresh_seconds", []float64{60, 600, 3600})
	for _, v := range []float64{30, 50, 500, 5000} {
		h.Observe(v)
	}
	sli := HistogramThreshold{H: h, Threshold: 600}
	good, total := sli.Sample()
	if good != 3 || total != 4 {
		t.Fatalf("Sample = (%v, %v), want (3, 4)", good, total)
	}
}

func TestSetReport(t *testing.T) {
	obs.Reset()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := NewSet()
	var aGood, bBad float64
	s.Add(
		&Objective{Name: "a", Target: 0.99,
			SLI:     CounterRatio{Good: func() float64 { return aGood }, Bad: func() float64 { return 0 }},
			Windows: []time.Duration{time.Minute}, Clock: clk.now},
		&Objective{Name: "b", Target: 0.99,
			SLI:     CounterRatio{Good: func() float64 { return 0 }, Bad: func() float64 { return bBad }},
			Windows: []time.Duration{time.Minute}, Clock: clk.now},
	)
	s.Evaluate() // seed the rings
	aGood, bBad = 10, 10
	clk.advance(30 * time.Second)
	s.Evaluate()
	rep := s.Report()
	lines := strings.Split(strings.TrimSpace(rep), "\n")
	if len(lines) != 2 {
		t.Fatalf("report lines = %d, want 2:\n%s", len(lines), rep)
	}
	if !strings.Contains(lines[0], "slo a") || !strings.Contains(lines[0], "ok") {
		t.Errorf("line 0 = %q, want healthy slo a", lines[0])
	}
	if !strings.Contains(lines[1], "slo b") || !strings.Contains(lines[1], "BURNING") {
		t.Errorf("line 1 = %q, want burning slo b", lines[1])
	}

	// The evaluation surfaces gauges in the default registry.
	var sb strings.Builder
	if err := obs.Default.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slo_good_ratio", "slo_burn_rate", "slo_target"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestFrozenClockKeepsHistory: once an objective's clock stops (a virtual
// clock after its run ends), neither further evaluations nor reading the
// report may push out the samples a window starts from — the burns stay what
// the first evaluation at that instant said.
func TestFrozenClockKeepsHistory(t *testing.T) {
	obs.Reset()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	var good, bad float64
	s := NewSet()
	s.Add(&Objective{Name: "fresh", Target: 0.99,
		SLI:     CounterRatio{Good: func() float64 { return good }, Bad: func() float64 { return bad }},
		Windows: []time.Duration{6 * time.Hour, 24 * time.Hour}, Clock: clk.now})
	s.Evaluate()
	good, bad = 90, 10
	clk.advance(time.Hour)
	first := s.Evaluate()[0]
	if first.Windows[0].Burn == 0 || first.Windows[1].Burn == 0 {
		t.Fatalf("first evaluation saw no burn: %v", first)
	}
	for i := 0; i < 2000; i++ {
		s.Evaluate()
		s.Report()
	}
	last := s.Evaluate()[0]
	for i, w := range last.Windows {
		if w.Burn != first.Windows[i].Burn {
			t.Errorf("burn{%s} = %v after 2,000 frozen evaluations, want %v",
				w.Window, w.Burn, first.Windows[i].Burn)
		}
	}
	if rep := strings.TrimSpace(s.Report()); rep != first.String() {
		t.Errorf("report = %q, want %q", rep, first.String())
	}
}
