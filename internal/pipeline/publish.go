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
// (internal/serve). The builder is Reset first, so each publish reflects
// the pipeline's current complete state; callers then Build a snapshot and
// Swap it into the serving index:
//
//	n := p.PublishAt(builder, params, now)
//	index.Swap(builder.Build())
//
// Returns the number of analyses published. Safe to call repeatedly while
// the service is live — Swap never locks readers out (see serve.Index).
//
// now is the pipeline's virtual time: readings that became queryable with
// this publish are observed into the freshness histogram (virtual seconds
// from OCR timestamp to now), and their journey traces — open since
// download.fetch — get their analyze/publish spans and are finalized. A
// zero now skips the freshness observation only.
func (p *Pipeline) PublishAt(b *serve.Builder, params core.Params, now time.Time) int {
	sp := trace.StartStage("pipeline.publish")
	defer sp.End()
	tA0 := time.Now()
	analyses := p.Analyze(params)
	tA1 := time.Now()
	b.Reset()
	b.Add(analyses...)
	tP1 := time.Now()
	p.finalizeReadings(now, tA0, tA1, tP1)
	mPublished.Inc()
	plog.Debug("published analyses", "groups", len(analyses))
	return len(analyses)
}

// finalizeReadings walks the measurements inserted since the previous
// publish: each one newer than the freshness watermark is observed into the
// freshness histogram (with its journey trace ID as exemplar) and its
// journey trace is closed with analyze/publish spans. Runs in insertion
// order, so journey span IDs are deterministic.
func (p *Pipeline) finalizeReadings(now time.Time, tA0, tA1, tP1 time.Time) {
	traced := trace.Enabled()
	useClock := !now.IsZero()
	if !traced && !useClock {
		return
	}
	newMark := p.freshMark
	docs, seq := p.Docs.C("measurements").FindAfter(p.freshSeq)
	p.freshSeq = seq
	for _, d := range docs {
		au, ok := d["atUnix"].(int64)
		if !ok || au <= p.freshMark {
			continue
		}
		if au > newMark {
			newMark = au
		}
		var ref uint64
		if tc, ok := d["trace"].(string); ok && traced {
			if ec, ok2 := trace.DecodeContext(tc); ok2 {
				ref = ec.TraceID
				ac := trace.RecordSpan(ec, "pipeline.analyze", tA0, tA1, "")
				var attrs []trace.Attr
				if useClock {
					attrs = append(attrs, trace.A("freshness_virtual_s",
						fmt.Sprintf("%d", now.Unix()-au)))
				}
				trace.RecordSpan(ac, "pipeline.publish", tA1, tP1, "", attrs...)
				trace.Finish(ec.TraceID)
			}
		}
		if useClock {
			hFreshness.ObserveExemplar(float64(now.Unix()-au), ref)
		}
	}
	if useClock && newMark > 0 {
		gFreshnessLatest.Set(float64(now.Unix() - newMark))
	}
	p.freshMark = newMark
}
