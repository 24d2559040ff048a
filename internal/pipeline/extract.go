package pipeline

import (
	"time"

	"tero/internal/docstore"
	"tero/internal/games"
	"tero/internal/imageproc"
	"tero/internal/imaging"
	"tero/internal/objstore"
	"tero/internal/obs/trace"
)

// Thumbnail extraction outcomes. The string values travel over the wire in
// distributed result documents, so they are part of the protocol.
const (
	OutcomeMeasured = "measured"     // latency extracted
	OutcomeZero     = "zero"         // waiting-lobby placeholder 0
	OutcomeMiss     = "miss"         // OCR could not read the overlay
	OutcomeUnknown  = "unknown_game" // decoded fine, game not recognized
	OutcomeCorrupt  = "corrupt"      // PGM failed to decode
)

// ThumbResult is the pure outcome of extracting one thumbnail — computed by
// a worker (possibly in another process) with no side effects; IngestResult
// applies the deterministic merge half. This split is what lets in-process
// worker pools and remote teroworker processes share one code path.
type ThumbResult struct {
	Key     string
	Outcome string

	Ms, Alt float64
	HasAlt  bool

	Streamer, Login, Game, At string
	AtUnix                    int64
	AtOK                      bool
}

// ExtractThumb runs the pure extraction for one thumbnail object: game
// lookup, PGM decode of the rows the game's latency display occupies, OCR
// pipeline. The whole object is validated (header, and every pixel byte
// present) but only the crop is copied out of it; an object of an unknown
// game is validated and no pixel of it read. No state outside the
// extractor's internal pools is touched.
func ExtractThumb(x *imageproc.Extractor, obj *objstore.Object) ThumbResult {
	r := ThumbResult{Key: obj.Key}
	game := games.ByName(obj.Meta["game"])
	var rect imaging.Rect // empty for an unknown game
	if game != nil {
		rect = game.UI.CropRect(x.Pad)
	}
	crop, err := imaging.DecodePGMRect(obj.Data, rect)
	if err != nil {
		// Undecodable PGM (truncated or bit-corrupted download): flag for
		// quarantine rather than feeding garbage to OCR. Corrupt is judged
		// before the game is: a corrupt object of an unknown game is
		// quarantined too.
		r.Outcome = OutcomeCorrupt
		return r
	}
	if game == nil {
		imaging.Recycle(crop)
		r.Outcome = OutcomeUnknown
		return r
	}
	ex := x.ExtractCrop(crop, game)
	imaging.Recycle(crop)
	r.Streamer = obj.Meta["streamer"]
	r.Login = obj.Meta["login"]
	r.Game = game.Name
	r.At = obj.Meta["at"]
	if t, err := time.Parse(time.RFC3339, r.At); err == nil {
		r.AtUnix, r.AtOK = t.Unix(), true
	}
	switch {
	case ex.OK:
		r.Outcome = OutcomeMeasured
		r.Ms = float64(ex.Value)
		if ex.HasAlt {
			r.Alt, r.HasAlt = float64(ex.Alt), true
		}
	case ex.Zero:
		r.Outcome = OutcomeZero
	default:
		r.Outcome = OutcomeMiss
	}
	return r
}

// IngestResult applies the serial merge half for one extracted thumbnail:
// counters, measurement insert (it is the only writer of the measurements
// collection), the pending-location entry. ctx, when
// valid, is the span context the stored measurement propagates (the extract
// span locally; a dist.ingest span when the result crossed a process
// boundary). Callers are responsible for calling in a deterministic order —
// this is the same code the single-process merge and the distributed
// coordinator run, so both produce identical documents and counters.
func (p *Pipeline) IngestResult(r ThumbResult, ctx trace.Context) {
	switch r.Outcome {
	case OutcomeCorrupt:
		p.Quarantined++
		mQuarantined.Inc()
		return
	case OutcomeUnknown:
		return
	}
	p.Processed++
	mProcessed.Inc()
	switch r.Outcome {
	case OutcomeMeasured:
		p.Extracted++
		mExtracted.Inc()
		anon := p.Anonymize(r.Streamer)
		doc := docstore.Doc{
			"streamer": anon,
			"login":    r.Login, // kept transiently for location lookup
			"game":     r.Game,
			"at":       r.At,
			"ms":       r.Ms,
		}
		if r.AtOK {
			// Parsed once here so the analysis hot loop never re-parses
			// RFC3339 strings (see BuildStreams).
			doc["atUnix"] = r.AtUnix
		}
		if r.HasAlt {
			doc["alt"] = r.Alt
			doc["hasAlt"] = true
		}
		if ctx.Valid() {
			// The measurement document carries the span's context until
			// PublishAt closes the journey.
			doc["trace"] = trace.Traceparent(ctx)
		}
		p.Docs.C("measurements").Insert(doc)
		p.dirty[pairKey{anon, r.Game}] = struct{}{} // the pair's streams changed: Analyze re-runs it
	case OutcomeZero:
		p.Zero++
		mZero.Inc()
	case OutcomeMiss:
		p.Missed++
		mMissed.Inc()
	}
	// Remember which platform ID maps to the pseudonym until the location
	// lookup has run, then forget (see LocateStreamers).
	p.KV.HSet("pending-location", r.Streamer, r.Login)
}
