package pipeline

import (
	"fmt"
	"time"

	"tero/internal/core"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/serve"
)

// Freshness: how stale is the serving index relative to the readings it was
// built from? Measured in virtual seconds from a reading's OCR timestamp
// (the `at` stamped when the thumbnail was downloaded) to the publish that
// first made it queryable. Buckets span one thumbnail cadence (5 min) to a
// full virtual day. The gauge tracks the newest reading's freshness at the
// latest publish — the "how far behind is the index right now" number.
var (
	hFreshness = obs.H("pipeline_freshness_virtual_seconds",
		[]float64{60, 300, 600, 1800, 3600, 7200, 14400, 21600, 43200, 86400})
	gFreshnessLatest = obs.G("pipeline_freshness_latest_virtual_seconds")
	mPublished       = obs.C("pipeline_publishes_total")
)

// FreshnessHistogram exposes the ingest-to-queryable histogram handle so
// callers can declare SLOs over it (see internal/obs/slo).
func FreshnessHistogram() *obs.Histogram { return hFreshness }

// PublishAt runs the analysis stage over everything stored so far and feeds
// the results into a serving builder — the hand-off point between the
// producer (download → extract → locate → analyze) and the query service
// (internal/serve). The builder ends up holding the pipeline's current
// complete state; callers then Build a snapshot and Swap it into the
// serving index:
//
//	n := p.PublishAt(builder, params, now)
//	index.Swap(builder.Build())
//
// A publish costs what arrived since the previous one: Analyze re-analyses
// only the pairs written since, and the builder is handed only those — new
// pairs by Add, re-analysed ones by Replace — so its Build re-renders only
// their groups. The pipeline assumes it is the builder's only writer from
// one publish to the next; a builder other than the previous publish's is
// Reset and handed everything.
//
// Returns the number of analyses the builder now holds for the pipeline:
// all of them, not the changed ones. Safe to call repeatedly while the
// service is live — Swap never locks readers out (see serve.Index).
//
// now is the pipeline's virtual time and is required: readings that became
// queryable with this publish are observed into the freshness histogram
// (virtual seconds from OCR timestamp to now), and their journey traces —
// open since download.fetch — get their analyze/publish spans and are
// finalized.
func (p *Pipeline) PublishAt(b *serve.Builder, params core.Params, now time.Time) int {
	sp := trace.StartStage("pipeline.publish")
	defer sp.End()
	tA0 := time.Now()
	analyses := p.Analyze(params)
	tA1 := time.Now()
	if b != p.publishedTo {
		b.Reset()
		for _, pr := range p.order {
			pr.published = nil
		}
		p.publishedTo = b
	}
	for _, pr := range p.order {
		switch {
		case pr.published == pr.analysis:
			continue
		case pr.published == nil:
			b.Add(pr.analysis)
		default:
			b.Replace(pr.published, pr.analysis)
		}
		pr.published = pr.analysis
	}
	tP1 := time.Now()
	p.finalizeReadings(now, tA0, tA1, tP1)
	mPublished.Inc()
	plog.Debug("published analyses", "pairs", len(analyses))
	return len(analyses)
}

// finalizeReadings walks the measurements inserted since the previous
// publish: each one newer than the freshness watermark is observed into the
// freshness histogram (with its journey trace ID as exemplar) and its
// journey trace is closed with analyze/publish spans. Runs in insertion
// order, so journey span IDs are deterministic.
func (p *Pipeline) finalizeReadings(now time.Time, tA0, tA1, tP1 time.Time) {
	traced := trace.Enabled()
	newMark := p.freshMark
	rows, seq := p.Docs.After(p.freshSeq)
	p.freshSeq = seq
	for _, m := range rows {
		au := m.AtUnix
		if au <= p.freshMark {
			continue
		}
		newMark = max(newMark, au)
		var ref uint64
		if traced {
			if ec, ok := trace.ParseTraceparent(m.Trace); ok {
				ref = ec.TraceID
				ac := trace.RecordSpan(ec, "pipeline.analyze", tA0, tA1, "")
				trace.RecordSpan(ac, "pipeline.publish", tA1, tP1, "",
					trace.A("freshness_virtual_s", fmt.Sprintf("%d", now.Unix()-au)))
				trace.Finish(ec.TraceID)
			}
		}
		hFreshness.ObserveExemplar(float64(now.Unix()-au), ref)
	}
	if newMark > 0 {
		gFreshnessLatest.Set(float64(now.Unix() - newMark))
	}
	p.freshMark = newMark
}
