// Package dist is the distributed-ingest topology: one coordinator process
// drives the virtual clock and runs the serial stages (queue seeding,
// result merge, location, analysis), while N teroworker processes — on the
// same host or not — claim streamers, fetch thumbnails and run OCR, all
// coordinating through one kvstore address that serves both the key-value
// protocol and the object buckets (App. A's Redis + S3 collapsed onto one
// wire).
//
// The protocol is lockstep rounds over plain keys, chosen so a fleet of
// any size produces byte-identical analysis tables to a single process:
//
//   - The coordinator freezes a virtual instant in dist:now, then publishes
//     a round token in dist:round. Workers poll for the token, do one round
//     of work at that frozen instant, and check in via dist:done.
//   - A round is: poll due streamers, then claim a fair quota from
//     dl:queue (queue/alive+1 — over-claiming is fine, the queue is the
//     limit). The coordinator repeats rounds at the same instant until the
//     queue drains, so WHICH VIRTUAL TICK adopts a streamer never depends
//     on fleet size.
//   - Workers never touch shared state between rounds; the barrier means
//     the coordinator reaps crashed workers' claims and snapshots the
//     queue while everything is quiescent, without locks.
//
// Workers prove liveness with real-time heartbeats in dist:beat. A worker
// whose beat stops changing mid-barrier is declared dead, its claims are
// requeued, and the survivors re-fetch them within the same virtual tick —
// the window-stamped metadata (download.Downloader.WindowStamp, always on
// in a worker) makes the re-fetch byte-identical to what the dead worker
// would have stored.
package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"tero/internal/games"
	"tero/internal/obs"
	"tero/internal/pipeline"
)

var dlog = obs.L("dist")

// Store layout of the distributed-run protocol. Everything lives in the
// same kvstore the download module already coordinates through.
const (
	// KeyWorkers is a hash: worker ID -> "1". Registration; the roster the
	// coordinator barriers on.
	KeyWorkers = "dist:workers"
	// KeyBeat is a hash: worker ID -> a value that changes with every
	// heartbeat (the worker's wall clock in unix nanoseconds, which the
	// coordinator reads only for change, never against its own clock).
	// Liveness is real time — virtual time is frozen while workers work, so
	// it cannot detect a hung process.
	KeyBeat = "dist:beat"
	// KeyPlatform carries the platform base URL from coordinator to
	// workers; its appearance is the run's start signal.
	KeyPlatform = "dist:platform"
	// KeyNow is the frozen virtual instant (RFC3339Nano) of the current
	// round.
	KeyNow = "dist:now"
	// KeyRound is the current round token, "tick.round" — or RoundDone
	// when the run is over and workers should exit.
	KeyRound = "dist:round"
	// KeyDone is a hash: worker ID -> last round token completed.
	KeyDone = "dist:done"
	// KeyStats is a hash: worker ID -> WorkerStats JSON, refreshed each
	// round; the coordinator's balance table reads it.
	KeyStats = "dist:stats"
	// KeyClaimTrace is a hash: streamer ID -> W3C traceparent of the
	// claim's trace, written by the claiming downloader so a reap after a
	// worker crash can chain onto the same story.
	KeyClaimTrace = "dist:claimtrace"
	// ResultBucket is the object bucket workers push extraction results
	// through, keyed by the thumbnail key: crash-and-refetch overwrites
	// with identical content instead of duplicating.
	ResultBucket = "dist-results"
	// RoundDone is the KeyRound sentinel that tells workers to exit.
	RoundDone = "done"
)

// Result is one extracted thumbnail crossing the worker->coordinator
// boundary, the wire form of pipeline.ThumbResult plus provenance. The
// coordinator replays it through Pipeline.IngestResult in key order, so a
// distributed run writes the same documents and counters as a local one.
type Result struct {
	Key     string `json:"key"`
	Outcome string `json:"outcome"` // pipeline.Outcome* constant

	Ms     float64 `json:"ms,omitempty"`
	Alt    float64 `json:"alt,omitempty"`
	HasAlt bool    `json:"hasAlt,omitempty"`

	Streamer string `json:"streamer,omitempty"`
	Login    string `json:"login,omitempty"`
	Game     string `json:"game,omitempty"`
	At       string `json:"at,omitempty"`
	AtUnix   int64  `json:"atUnix,omitempty"`
	AtOK     bool   `json:"atOK,omitempty"`

	// Traceparent is the worker's dist.extract span context; the
	// coordinator's ingest span chains onto it, so one journey spans both
	// processes.
	Traceparent string `json:"traceparent,omitempty"`
	// Worker records who extracted it (balance accounting, debugging).
	Worker string `json:"worker,omitempty"`
}

// Encode renders the wire form.
func (r Result) Encode() []byte {
	b, _ := json.Marshal(r)
	return b
}

// DecodeResult parses and validates the result document stored under key.
// The result bucket is reachable by anything that can reach the store, and
// what decodes here goes straight to Pipeline.IngestResult — into the
// counters, pending-location and, for a measured reading, the measurements
// collection §3.3 analyses — so valid JSON is not enough. A Result is
// accepted only if it is one ExtractThumb could have produced for that key:
//
//   - Outcome is one of the five pipeline.Outcome* constants and Key is key;
//   - measured, zero and miss (the outcomes filed under a streamer) name the
//     streamer;
//   - measured names a game games.ByName knows, Ms is an integer in 1..999
//     (App. E: at most three digits, and 0 is the lobby placeholder, which is
//     OutcomeZero), Alt likewise when HasAlt, and AtOK means At is the
//     RFC 3339 form of AtUnix.
func DecodeResult(key string, b []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, err
	}
	if r.Key != key {
		return Result{}, fmt.Errorf("dist: result stored under %q is keyed %q", key, r.Key)
	}
	switch r.Outcome {
	case pipeline.OutcomeCorrupt, pipeline.OutcomeUnknown:
		return r, nil
	case pipeline.OutcomeMeasured, pipeline.OutcomeZero, pipeline.OutcomeMiss:
		if r.Streamer == "" {
			return Result{}, fmt.Errorf("dist: %s result %q names no streamer", r.Outcome, key)
		}
	default:
		return Result{}, fmt.Errorf("dist: result %q has outcome %q", key, r.Outcome)
	}
	if r.Outcome != pipeline.OutcomeMeasured {
		return r, nil
	}
	if games.ByName(r.Game) == nil {
		return Result{}, fmt.Errorf("dist: measured result %q is of unknown game %q", key, r.Game)
	}
	if !validMs(r.Ms) || (r.HasAlt && !validMs(r.Alt)) {
		return Result{}, fmt.Errorf("dist: measured result %q reads %v ms (alt %v): not an integer in 1..999", key, r.Ms, r.Alt)
	}
	if r.AtOK {
		if t, err := time.Parse(time.RFC3339, r.At); err != nil || t.Unix() != r.AtUnix {
			return Result{}, fmt.Errorf("dist: measured result %q: at %q is not unix %d", key, r.At, r.AtUnix)
		}
	}
	return r, nil
}

// validMs reports whether v is a latency the image-processing module can
// return: a whole number of milliseconds in 1..999. NaN and ±Inf fail the
// comparisons.
func validMs(v float64) bool { return v >= 1 && v <= 999 && v == math.Trunc(v) }

// WorkerStats is the per-worker balance record published in KeyStats.
type WorkerStats struct {
	Worker    string `json:"worker"`
	Rounds    int    `json:"rounds"`
	Claims    int    `json:"claims"`
	Fetches   int    `json:"fetches"`
	Extracted int    `json:"extracted"`
}

// Encode renders the wire form.
func (s WorkerStats) Encode() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// DecodeWorkerStats parses the wire form.
func DecodeWorkerStats(s string) (WorkerStats, error) {
	var w WorkerStats
	err := json.Unmarshal([]byte(s), &w)
	return w, err
}
