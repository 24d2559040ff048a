// Package dist is the distributed-ingest topology: one coordinator process
// drives the virtual clock and runs the serial stages (queue seeding,
// result merge, location, analysis), while N teroworker processes — on the
// same host or not — claim streamers, fetch thumbnails and run OCR, all
// coordinating through one kvstore address and its ten key-value commands
// (App. A's Redis). Thumbnails never leave the worker that fetched them;
// what crosses the wire is one result document per thumbnail, in a hash.
//
// The protocol is lockstep rounds over plain keys, chosen so a fleet of
// any size produces byte-identical analysis tables to a single process:
//
//   - The coordinator publishes a round token in dist:round that carries
//     the round's frozen virtual instant. Workers poll for the token, do one
//     round of work at that instant, and check in via dist:done with their
//     balance record. A worker starts on the first token it reads.
//   - A round is the worker's own pipeline stage: poll due streamers, take
//     a ceil-share of dl:queue with the roster as the fleet's size
//     (Pipeline.TickShare, download.Deal — the one adoption policy, which a
//     single process runs over its own downloaders), start extracting each
//     thumbnail as it lands, then take every extraction
//     (Pipeline.DrainThumbnails, the drain a single process merges through)
//     and push it into dist:results instead of merging it. The shares
//     cover the queue and the coordinator repeats rounds at the same
//     instant until it drains, so WHICH VIRTUAL TICK adopts a streamer
//     never depends on fleet size.
//   - Workers never touch shared state between rounds: a live worker
//     finishes every claim (LPOP + HSET) and release (HDEL + RPUSH) before
//     it checks in. After a barrier that declared a worker dead, the
//     coordinator reaps its claims and sweeps for streamers lost between
//     the two halves of a pair while everything is quiescent, without
//     locks; a barrier without a death leaves the queue alone.
//
// Workers prove liveness with real-time heartbeats in dist:beat, sent over
// the worker's one store connection — the one liveness rule of the fleet.
// A worker whose beat stops changing mid-barrier is declared dead, its
// claims are requeued, and the survivors re-fetch them within the same
// virtual tick —
// every downloader stamps a thumbnail with its CDN window, so the re-fetch
// is byte-identical to what the dead worker would have stored.
package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"tero/internal/games"
	"tero/internal/obs"
	"tero/internal/pipeline"
)

var dlog = obs.L("dist")

// Store layout of the distributed-run protocol. Everything lives in the
// same kvstore the download module already coordinates through.
const (
	// KeyRoster is a hash: worker ID -> "1". Registration; the roster the
	// coordinator barriers on.
	KeyRoster = "dist:workers"
	// KeyBeat is a hash: worker ID -> a value that changes with every
	// heartbeat (the worker's wall clock in unix nanoseconds, which the
	// coordinator reads only for change, never against its own clock).
	// Liveness is real time — virtual time is frozen while workers work, so
	// it cannot detect a hung process.
	KeyBeat = "dist:beat"
	// KeyRound is the current round token, "tick.round@instant" with the
	// round's frozen virtual instant in RFC 3339 (roundToken) — or
	// RoundDone when the run is over and workers should exit.
	KeyRound = "dist:round"
	// KeyDone is a hash: worker ID -> WorkerStats JSON, the worker's
	// check-in, whose Round is the last round token it completed. The
	// barrier reads it for the token, the balance table for the rest; a
	// dead or departed worker's last record stays.
	KeyDone = "dist:done"
	// KeyClaimTrace is a hash: streamer ID -> W3C traceparent of the
	// claim's trace, written by the claiming downloader so a reap after a
	// worker crash can chain onto the same story.
	KeyClaimTrace = "dist:claimtrace"
	// KeyResults is a hash: thumbnail key -> Result JSON, what workers push
	// their extractions through. Crash-and-refetch overwrites the field with
	// identical content instead of duplicating.
	KeyResults = "dist:results"
	// RoundDone is the KeyRound sentinel that tells workers to exit.
	RoundDone = "done"
)

// Result is one extracted thumbnail crossing the worker->coordinator
// boundary: pipeline.ThumbResult, whose fields JSON inlines, plus
// provenance. The coordinator replays it through Pipeline.IngestResult in
// key order, so a distributed run writes the same documents and counters as
// a local one.
type Result struct {
	pipeline.ThumbResult

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
// The result hash is writable by anything that can reach the store, and
// what decodes here goes straight to Pipeline.IngestResult — into the
// counters, the pending location lookups and, for a measured reading, the
// measurements collection §3.3 analyses — so valid JSON is not enough. A
// Result is accepted only if it is one ExtractThumb could have produced for
// that key:
//
//   - Outcome is one of the five pipeline.Outcome* constants and Key is key;
//   - measured, zero and miss (the outcomes filed under a streamer) name the
//     streamer;
//   - measured names a game games.ByName knows, Ms is an integer in 1..999
//     (App. E: at most three digits, and 0 is the lobby placeholder, which is
//     OutcomeZero), Alt likewise when HasAlt, and AtUnix, the download
//     stamp every measured reading carries, is set.
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
	if r.AtUnix == 0 {
		return Result{}, fmt.Errorf("dist: measured result %q carries no atUnix", key)
	}
	return r, nil
}

// validMs reports whether v is a latency the image-processing module can
// return: a whole number of milliseconds in 1..999. NaN and ±Inf fail the
// comparisons.
func validMs(v float64) bool { return v >= 1 && v <= 999 && v == math.Trunc(v) }

// WorkerStats is a worker's check-in in KeyDone: its balance record,
// stamped with the round token it has just completed.
type WorkerStats struct {
	Worker    string `json:"worker"`
	Round     string `json:"round,omitempty"`
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

// roundToken is the KeyRound value of round r of tick, frozen at now.
func roundToken(tick, r int, now time.Time) string {
	return strconv.Itoa(tick) + "." + strconv.Itoa(r) + "@" + now.UTC().Format(time.RFC3339Nano)
}

// roundInstant is the frozen virtual instant a round token carries.
func roundInstant(token string) (time.Time, error) {
	_, at, ok := strings.Cut(token, "@")
	if !ok {
		return time.Time{}, fmt.Errorf("dist: round token %q carries no instant", token)
	}
	return time.Parse(time.RFC3339Nano, at)
}
