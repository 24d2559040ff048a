// Package slo declares service-level objectives over obs metrics and
// evaluates multi-window burn rates against them.
//
// An Objective pairs an SLI — a cumulative (good, total) event-count
// source — with a target good-ratio and a set of look-back windows. Each
// Evaluate call records a cumulative sample and, per window, computes the
// burn rate: the window's bad-ratio divided by the error budget (1 −
// target). Burn 1 means the budget is being consumed exactly at the rate
// that exhausts it over the SLO period; multi-window alerting fires only
// when a short and a long window both burn hot, which is what
// Status.Healthy checks.
//
// Windows run on the objective's clock: wall time for serving SLOs,
// virtual time for pipeline freshness (the pipeline's world advances in
// virtual minutes per wall second, so a wall-clock window would be
// meaningless there).
//
// Evaluation is cheap (a handful of atomic reads and a ring append) and
// surfaced as gauges in the obs.Default registry —
// slo_good_ratio{slo=…}, slo_burn_rate{slo=…,window=…} — so /metrics and
// readyz expose the same numbers.
package slo

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tero/internal/obs"
)

// SLI is a cumulative service-level indicator: monotonically non-
// decreasing counts of good and total events since process start.
type SLI interface {
	Sample() (good, total float64)
}

// CounterRatio is an SLI over good/bad counter reads (total = good+bad).
type CounterRatio struct {
	Good func() float64
	Bad  func() float64
}

func (c CounterRatio) Sample() (good, total float64) {
	g, b := c.Good(), c.Bad()
	return g, g + b
}

// HistogramThreshold is an SLI over an obs.Histogram: an observation is
// good when ≤ Threshold. Threshold should sit on a bucket boundary — the
// count is then exact, not interpolated.
type HistogramThreshold struct {
	H         *obs.Histogram
	Threshold float64
}

func (h HistogramThreshold) Sample() (good, total float64) {
	return float64(h.H.CountLE(h.Threshold)), float64(h.H.Count())
}

// sample is one cumulative observation.
type sample struct {
	at          time.Time
	good, total float64
}

// maxSamples bounds each objective's ring; at one Evaluate per virtual
// tick this covers hours of history, far past the longest window.
const maxSamples = 1024

// Objective is one declared SLO.
type Objective struct {
	// Name labels the gauges (slo_…{slo=Name}).
	Name string
	// Target is the objective good-ratio, e.g. 0.999.
	Target float64
	// SLI supplies the cumulative counts.
	SLI SLI
	// Windows are the burn-rate look-backs, shortest first.
	Windows []time.Duration
	// Clock supplies now (defaults to time.Now; pipeline-freshness
	// objectives pass the virtual clock).
	Clock func() time.Time

	mu      sync.Mutex
	ring    []sample
	at      int
	last    Status
	gGood   *obs.Gauge
	gBurn   []*obs.Gauge
	gTarget *obs.Gauge
}

// WindowBurn is one window's evaluation.
type WindowBurn struct {
	Window time.Duration
	// Burn is badRatio/errorBudget within the window: 1.0 consumes the
	// budget exactly; 0 when the window saw no events.
	Burn float64
	// Events is the window's total-event delta.
	Events float64
}

// Status is one objective's latest evaluation.
type Status struct {
	Name      string
	Target    float64
	GoodRatio float64 // cumulative, 1.0 when no events yet
	Windows   []WindowBurn
}

// Healthy reports whether every window burns under the threshold.
// Threshold 1 means "consuming budget no faster than sustainable".
func (s Status) Healthy(threshold float64) bool {
	for _, w := range s.Windows {
		if w.Burn >= threshold {
			return false
		}
	}
	return true
}

// String renders the status as one readyz-friendly line.
func (s Status) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "slo %s target=%.4g good=%.4f", s.Name, s.Target, s.GoodRatio)
	for _, w := range s.Windows {
		fmt.Fprintf(&sb, " burn{%s}=%.2f", w.Window, w.Burn)
	}
	if s.Healthy(1) {
		sb.WriteString(" ok")
	} else {
		sb.WriteString(" BURNING")
	}
	return sb.String()
}

// init lazily resolves the objective's gauge handles.
func (o *Objective) init() {
	if o.gGood != nil {
		return
	}
	o.gGood = obs.G(obs.Lbl("slo_good_ratio", "slo", o.Name))
	o.gTarget = obs.G(obs.Lbl("slo_target", "slo", o.Name))
	o.gTarget.Set(o.Target)
	for _, w := range o.Windows {
		o.gBurn = append(o.gBurn,
			obs.G(obs.Lbl("slo_burn_rate", "slo", o.Name, "window", w.String())))
	}
}

// now resolves the objective's clock.
func (o *Objective) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now()
}

// Evaluate samples the SLI, records the sample, updates the gauges and
// returns the status. A sample taken at the newest sample's instant replaces
// it: on a clock that has stopped (a virtual clock after its run ends),
// repeated evaluations would otherwise fill the ring with one instant and
// push out every sample a window starts from. Safe for concurrent use.
func (o *Objective) Evaluate() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.init()

	good, total := o.SLI.Sample()
	now := o.now()
	cur := sample{at: now, good: good, total: total}
	switch newest := o.newestLocked(); {
	case newest != nil && newest.at.Equal(now):
		*newest = cur
	case len(o.ring) < maxSamples:
		o.ring = append(o.ring, cur)
	default:
		o.ring[o.at] = cur
		o.at = (o.at + 1) % maxSamples
	}

	st := Status{Name: o.Name, Target: o.Target, GoodRatio: 1}
	if total > 0 {
		st.GoodRatio = good / total
	}
	o.gGood.Set(st.GoodRatio)

	budget := 1 - o.Target
	for i, w := range o.Windows {
		base := o.baseSampleLocked(now.Add(-w))
		wb := WindowBurn{Window: w}
		if base != nil {
			dGood, dTotal := good-base.good, total-base.total
			wb.Events = dTotal
			if dTotal > 0 && budget > 0 {
				wb.Burn = ((dTotal - dGood) / dTotal) / budget
			}
		}
		st.Windows = append(st.Windows, wb)
		o.gBurn[i].Set(wb.Burn)
	}
	o.last = st
	return st
}

// newestLocked returns the most recently recorded sample, nil if none.
func (o *Objective) newestLocked() *sample {
	switch {
	case len(o.ring) == 0:
		return nil
	case len(o.ring) < maxSamples:
		return &o.ring[len(o.ring)-1]
	}
	return &o.ring[(o.at+maxSamples-1)%maxSamples]
}

// lastStatus returns the status of the latest Evaluate: good ratio 1 and no
// windows before the first.
func (o *Objective) lastStatus() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.ring) == 0 {
		return Status{Name: o.Name, Target: o.Target, GoodRatio: 1}
	}
	return o.last
}

// baseSampleLocked returns the newest sample at or before cutoff, or the
// oldest sample if all are newer (window not yet filled — burn is then
// computed over the available history, which errs toward sensitivity).
func (o *Objective) baseSampleLocked(cutoff time.Time) *sample {
	var best, oldest *sample
	for i := range o.ring {
		s := &o.ring[i]
		if oldest == nil || s.at.Before(oldest.at) {
			oldest = s
		}
		if !s.at.After(cutoff) && (best == nil || s.at.After(best.at)) {
			best = s
		}
	}
	if best != nil {
		return best
	}
	return oldest
}

// Set is a named collection of objectives evaluated together.
type Set struct {
	mu   sync.Mutex
	objs []*Objective
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Add registers objectives.
func (s *Set) Add(objs ...*Objective) {
	s.mu.Lock()
	s.objs = append(s.objs, objs...)
	s.mu.Unlock()
}

// objectives returns the registered objectives in add order.
func (s *Set) objectives() []*Objective {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Objective(nil), s.objs...)
}

// Evaluate runs every objective and returns their statuses in add order.
func (s *Set) Evaluate() []Status {
	objs := s.objectives()
	out := make([]Status, len(objs))
	for i, o := range objs {
		out[i] = o.Evaluate()
	}
	return out
}

// Report renders one line per objective from its latest Evaluate — the
// readyz appendix. It evaluates nothing: reading the report, as every
// readiness probe does, must not write SLO history.
func (s *Set) Report() string {
	var sb strings.Builder
	for _, o := range s.objectives() {
		sb.WriteString(o.lastStatus().String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
