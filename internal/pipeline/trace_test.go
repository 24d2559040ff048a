package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/obs/trace"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// traceSetup boots a world, its platform (advanced to the evening peak) and
// a fully serial pipeline (one downloader, Concurrency 1) with tracing on
// and every trace kept: span-ID allocation order is then deterministic and
// the kept set does not depend on timing.
func traceSetup(t *testing.T, seed uint64, streamers int) (*Pipeline, *twitchsim.Platform) {
	t.Helper()
	trace.Enable(seed)
	trace.SetSampleN(1)
	t.Cleanup(func() {
		trace.Disable()
		trace.SetVirtualClock(nil)
	})

	cfg := worldsim.DefaultConfig(int64(seed))
	cfg.Streamers = streamers
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)
	trace.SetVirtualClock(platform.Now)

	p := New(platform.URL(), 1)
	p.Concurrency = 1
	platform.Advance(23 * time.Hour)
	return p, platform
}

// traceWorld drives a traceSetup pipeline for `hours` of virtual time, so
// two runs with the same seed replay identical trace trees. Returns the
// pipeline after a publish so journey traces are finalized.
func traceWorld(t *testing.T, seed uint64, streamers int, hours float64) *Pipeline {
	t.Helper()
	p, platform := traceSetup(t, seed, streamers)
	if err := Drive(platform, p, nil, int(hours*30), TickEvery, nil); err != nil {
		t.Fatal(err)
	}
	b := serve.NewBuilder(core.DefaultParams())
	p.PublishAt(b, core.DefaultParams(), platform.Now())
	return p
}

// TestJourneyTraceChain is the acceptance walk: one stored trace shows a
// reading's full journey — thumbnail fetch, OCR extract, analyze, publish —
// stitched across pipeline stages via the context carried in object
// metadata and the measurement doc.
func TestJourneyTraceChain(t *testing.T) {
	traceWorld(t, 23, 12, 1.5)

	want := []string{"download.fetch", "pipeline.extract", "pipeline.analyze", "pipeline.publish"}
	for _, tr := range trace.ActiveStore().Traces() {
		if tr.Root != "download.fetch" {
			continue
		}
		names := make(map[string]bool, len(tr.Spans))
		byID := make(map[uint64]trace.SpanData, len(tr.Spans))
		for _, s := range tr.Spans {
			names[s.Name] = true
			byID[s.SpanID] = s
		}
		chained := true
		for _, n := range want {
			if !names[n] {
				chained = false
				break
			}
		}
		if !chained {
			continue
		}
		// Every span must chain back to the journey root.
		for _, s := range tr.Spans {
			if s.ParentID == 0 {
				continue
			}
			if _, ok := byID[s.ParentID]; !ok {
				t.Fatalf("span %s has dangling parent %016x", s.Name, s.ParentID)
			}
		}
		// Virtual timestamps place the reading inside the observation day.
		if tr.VStart.IsZero() {
			t.Fatal("journey trace has no virtual timestamp")
		}
		return
	}
	var roots []string
	for _, tr := range trace.ActiveStore().Traces() {
		roots = append(roots, tr.Root)
	}
	t.Fatalf("no trace with full %v chain; stored roots: %s",
		want, strings.Join(roots, ", "))
}

// traceSignature renders every stored trace as id/root/span-tree text —
// wall timings excluded, IDs and structure included.
func traceSignature() []string {
	var sigs []string
	for _, tr := range trace.ActiveStore().Traces() {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%016x", tr.ID)
		spans := append([]trace.SpanData(nil), tr.Spans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].SpanID < spans[j].SpanID })
		for _, s := range spans {
			fmt.Fprintf(&sb, " %s(%016x<-%016x)", s.Name, s.SpanID, s.ParentID)
		}
		sigs = append(sigs, sb.String())
	}
	sort.Strings(sigs)
	return sigs
}

// TestTraceDeterminism: same seed, serial pipeline ⇒ identical trace IDs
// and span trees across runs. This is what makes traces diffable between
// experiment replays.
func TestTraceDeterminism(t *testing.T) {
	traceWorld(t, 7, 8, 1)
	first := traceSignature()
	traceWorld(t, 7, 8, 1) // re-Enable resets store and ID source
	second := traceSignature()

	if len(first) == 0 {
		t.Fatal("no traces recorded")
	}
	if len(first) != len(second) {
		t.Fatalf("trace count differs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace %d differs:\n  run1: %s\n  run2: %s", i, first[i], second[i])
		}
	}
}

// TestFreshnessObserved: PublishAt feeds the freshness histogram and gauge,
// and new readings' exemplars carry their journey trace IDs.
func TestFreshnessObserved(t *testing.T) {
	h := FreshnessHistogram()
	base := h.Count()
	traceWorld(t, 11, 10, 1)
	if h.Count() == base {
		t.Fatal("publish observed no freshness samples")
	}
	var lit bool
	for _, e := range h.Exemplars() {
		if e.Ref != 0 {
			lit = true
		}
	}
	if !lit {
		t.Fatal("no freshness exemplar carries a trace ID")
	}
}

// TestFreshnessCursorMatchesFullScan pins the cursor walk of
// finalizeReadings to what a full scan of the measurement table
// derives, publish by publish: the freshness histogram count, the latest
// gauge, and the set of journey traces finished.
func TestFreshnessCursorMatchesFullScan(t *testing.T) {
	p, platform := traceSetup(t, 5, 24)
	b := serve.NewBuilder(core.DefaultParams())
	h := FreshnessHistogram()

	var mark int64 // the full scan's watermark: newest atUnix already published
	publishes, nonEmpty := 0, 0
	publish := func() {
		p.LocateStreamers(platform.Now())
		fresh, newest := 0, mark
		rows, _ := p.Docs.After(0)
		for _, m := range rows {
			if au := m.AtUnix; au > mark {
				fresh++
				if au > newest {
					newest = au
				}
			}
		}
		before := h.Count()
		now := platform.Now()
		p.PublishAt(b, core.DefaultParams(), now)
		if got := int(h.Count() - before); got != fresh {
			t.Fatalf("publish %d observed %d readings, full scan finds %d new", publishes, got, fresh)
		}
		if got, want := gFreshnessLatest.Value(), float64(now.Unix()-newest); newest > 0 && got != want {
			t.Fatalf("publish %d: latest gauge %v, want %v", publishes, got, want)
		}
		mark = newest
		publishes++
		if fresh > 0 {
			nonEmpty++
		}
	}
	afterDrains := func(i int) error {
		if i%DrainEvery == 0 {
			publish()
		}
		return nil
	}
	if err := Drive(platform, p, nil, 3*DrainEvery, TickEvery, afterDrains); err != nil {
		t.Fatal(err)
	}
	publish() // after the final drain

	if nonEmpty < 2 {
		t.Fatalf("%d of %d publishes saw new readings; the cursor must be exercised across several", nonEmpty, publishes)
	}

	want := make(map[uint64]bool)
	rows, _ := p.Docs.After(0)
	for n, m := range rows {
		ec, ok := trace.ParseTraceparent(m.Trace)
		if !ok {
			t.Fatalf("measurement %d carries no trace context", n)
		}
		want[ec.TraceID] = true
	}
	finished := 0
	for _, tr := range trace.ActiveStore().Traces() {
		if tr.Root != "download.fetch" {
			continue
		}
		for _, s := range tr.Spans {
			if s.Name == "pipeline.publish" {
				if !want[tr.ID] {
					t.Errorf("trace %016x finished without a measurement", tr.ID)
				}
				finished++
				break
			}
		}
	}
	if finished != len(want) {
		t.Errorf("%d journeys finished, %d measurements stored", finished, len(want))
	}
}
