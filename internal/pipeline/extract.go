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
	OutcomeCorrupt  = "corrupt"      // PGM failed to decode, or no readable stamp
)

// ThumbResult is the pure outcome of extracting one thumbnail — computed by
// a worker (possibly in another process) with no side effects; IngestResult
// applies the deterministic merge half. This split is what lets in-process
// worker pools and remote teroworker processes share one code path. The JSON
// form is the body of a distributed result document (dist.Result).
type ThumbResult struct {
	Key     string `json:"key"`
	Outcome string `json:"outcome"` // one of the Outcome* constants

	Ms     float64 `json:"ms,omitempty"`
	Alt    float64 `json:"alt,omitempty"`
	HasAlt bool    `json:"hasAlt,omitempty"`

	Streamer string `json:"streamer,omitempty"`
	Login    string `json:"login,omitempty"`
	Game     string `json:"game,omitempty"`
	AtUnix   int64  `json:"atUnix,omitempty"` // the download stamp, unix seconds
}

// ExtractThumb runs the pure extraction for one thumbnail object: game
// lookup, PGM decode of the rows the game's latency display occupies, OCR
// pipeline. The whole object is validated (header, and every pixel byte
// present) but only the crop is copied out of it; an object of an unknown
// game is validated and no pixel of it read. An object of a known game
// whose "at" stamp does not parse is corrupt: the downloader stamps every
// thumbnail it stores, and a reading needs its instant. No state outside
// the extractor's internal pools is touched.
func ExtractThumb(x *imageproc.Extractor, obj *objstore.Object) ThumbResult {
	r := ThumbResult{Key: obj.Key}
	game := games.ByName(obj.Meta["game"])
	var rect imaging.Rect // empty for an unknown game
	if game != nil {
		rect = game.UI.CropRect(x.Pad)
	}
	crop, err := imaging.DecodePGMRect(obj.Data, rect)
	if err != nil {
		// Undecodable PGM (truncated or bit-corrupted download): counted and
		// deleted rather than fed to OCR. Corrupt is judged before the game
		// is: a corrupt object of an unknown game is corrupt too.
		r.Outcome = OutcomeCorrupt
		return r
	}
	if game == nil {
		imaging.Recycle(crop)
		r.Outcome = OutcomeUnknown
		return r
	}
	at, err := time.Parse(time.RFC3339, obj.Meta["at"])
	if err != nil {
		imaging.Recycle(crop)
		r.Outcome = OutcomeCorrupt
		return r
	}
	ex := x.ExtractCrop(crop, game)
	imaging.Recycle(crop)
	r.Streamer = obj.Meta["streamer"]
	r.Login = obj.Meta["login"]
	r.Game = game.Name
	r.AtUnix = at.Unix()
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
// counters, measurement insert (it is the only writer of the measurement
// table), the streamer's pending location lookup. ctx, when
// valid, is the span context the stored measurement propagates (the extract
// span locally; a dist.ingest span when the result crossed a process
// boundary). Callers are responsible for calling in a deterministic order —
// this is the same code the single-process merge and the distributed
// coordinator run, so both produce identical rows and counters.
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
		// The row keeps the pseudonym only; the login waits for the
		// location lookup among the pending ones below.
		m := docstore.Measurement{Streamer: anon, Game: r.Game,
			AtUnix: r.AtUnix, Ms: r.Ms, Alt: r.Alt, HasAlt: r.HasAlt}
		if ctx.Valid() {
			// The row carries the span's context until PublishAt closes
			// the journey.
			m.Trace = trace.Traceparent(ctx)
		}
		p.Docs.Insert(m)
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
	p.pending[r.Streamer] = r.Login
}
