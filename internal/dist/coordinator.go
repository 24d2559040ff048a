package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
)

var (
	mRounds     = obs.C("dist_rounds_total")
	mMakeup     = obs.C("dist_makeup_rounds_total")
	mIngested   = obs.C("dist_results_ingested_total")
	mDeduped    = obs.C("dist_results_deduped_total")
	mRejected   = obs.C("dist_results_rejected_total")
	mDead       = obs.C("dist_workers_dead_total")
	mReapClaims = obs.C("dist_claims_reaped_total")
	mRescued    = obs.C("dist_lost_requeued_total")
)

// Coordinator drives a distributed run from the process that owns the
// store: it freezes virtual instants, publishes round tokens, barriers on
// worker check-ins, declares stale-hearted workers dead (and requeues
// their claims), and merges pushed results into the pipeline in key order.
// The serial stages — queue seeding, location, analysis, publish — stay on
// the embedded pipeline exactly as in a single-process run.
type Coordinator struct {
	// P is the pipeline results merge into. Its own downloaders are idle
	// in a distributed run; the fleet does the fetching.
	P *pipeline.Pipeline
	// KV and Objects are the coordination store and object buckets — the
	// same store workers reach over TCP, accessed directly here.
	KV      kvstore.KV
	Objects objstore.API

	// Counters (mirrored into the obs registry as dist_*_total).
	Rounds, MakeupRounds      int
	Ingested, Deduped         int
	DeadWorkers, ReapedClaims int
	LostRequeued              int

	seen  map[string]bool
	beats map[string]beatSeen
}

// beatSeen is the last heartbeat value the coordinator read for a worker
// and when, on the coordinator's own clock, it first read that value. The
// value itself is opaque: a worker writes its wall clock, which need not
// agree with this host's.
type beatSeen struct {
	value string
	at    time.Time
}

const (
	// deadAfter is how long a blocking worker's heartbeat may stay unchanged
	// before the worker is declared dead mid-barrier. Beats default to 25ms,
	// so this is ~40 missed beats, far beyond scheduler jitter.
	deadAfter = time.Second
	// barrierTimeout bounds one round's barrier wait.
	barrierTimeout = 60 * time.Second
	// maxRounds bounds makeup rounds per tick — a fuse against a protocol
	// bug looping forever, far above any real drain.
	maxRounds = 256
)

// NewCoordinator builds a coordinator around a pipeline and the store it
// serves to the fleet.
func NewCoordinator(p *pipeline.Pipeline, kv kvstore.KV, objects objstore.API) *Coordinator {
	return &Coordinator{
		P: p, KV: kv, Objects: objects,
		seen:  make(map[string]bool),
		beats: make(map[string]beatSeen),
	}
}

// Announce publishes the platform base URL — the fleet's start signal.
func (c *Coordinator) Announce(platformURL string) {
	c.KV.Set(KeyPlatform, platformURL)
}

// WaitWorkers blocks until n workers have registered.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if len(c.KV.HGetAll(KeyWorkers)) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: %d workers never registered (have %d)",
				n, len(c.KV.HGetAll(KeyWorkers)))
		}
		time.Sleep(time.Millisecond)
	}
}

// EndRun tells the fleet to exit cleanly.
func (c *Coordinator) EndRun() { c.KV.Set(KeyRound, RoundDone) }

// Tick runs one virtual tick: freeze the instant, optionally run the
// coordinator poll (queue seeding + offline processing), then drive rounds
// until the queue is drained — makeup rounds keep the virtual clock frozen,
// so WHICH TICK adopts a streamer never depends on fleet size or crashes —
// and finally merge every pushed result.
func (c *Coordinator) Tick(now time.Time, tick int, pollCoordinator bool) error {
	c.KV.Set(KeyNow, now.UTC().Format(time.RFC3339Nano))
	if pollCoordinator {
		if err := c.P.Coordinator.PollOnce(); err != nil {
			// Degraded, not fatal — same contract as Pipeline.Tick.
			dlog.Warn("coordinator poll failed", "err", err)
		}
	}
	for r := 0; ; r++ {
		if r >= maxRounds {
			return fmt.Errorf("dist: tick %d still draining after %d rounds", tick, r)
		}
		token := strconv.Itoa(tick) + "." + strconv.Itoa(r)
		c.KV.Set(KeyRound, token)
		dead, err := c.barrier(token)
		if err != nil {
			return err
		}
		c.Rounds++
		mRounds.Inc()
		if r > 0 {
			c.MakeupRounds++
			mMakeup.Inc()
		}
		// Post-barrier the fleet is quiescent: reap and rescue without
		// racing a claim in flight.
		c.reapDead(dead)
		c.rescueLost()
		if c.KV.LLen(download.KeyQueue) == 0 {
			break
		}
	}
	c.ingest()
	return nil
}

// barrier waits until every rostered worker has checked in the round token,
// declaring workers dead along the way when their heartbeat is missing or
// has not changed for deadAfter of the coordinator's own time — never by
// comparing the worker's clock with this one. Dead workers come off the
// roster immediately (so the barrier can complete) but their claims are
// reaped only after the survivors finish the round — between rounds nobody
// touches shared state, so the reap cannot race an adoption.
func (c *Coordinator) barrier(token string) ([]string, error) {
	deadline := time.Now().Add(barrierTimeout)
	var dead []string
	for {
		roster := c.KV.HGetAll(KeyWorkers)
		if len(roster) == 0 {
			return dead, errors.New("dist: no live workers")
		}
		done := c.KV.HGetAll(KeyDone)
		allDone := true
		for id := range roster {
			if done[id] != token {
				allDone = false
				break
			}
		}
		if allDone {
			return dead, nil
		}
		now := time.Now()
		ids := make([]string, 0, len(roster))
		for id := range roster {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if done[id] == token {
				continue // checked in: not blocking this round
			}
			v, ok := c.KV.HGet(KeyBeat, id)
			last := c.beats[id]
			if ok && v != last.value {
				c.beats[id] = beatSeen{value: v, at: now} // still beating
				continue
			}
			if ok && now.Sub(last.at) <= deadAfter {
				continue // silent, not yet for long enough
			}
			delete(c.beats, id)
			c.KV.HDel(KeyWorkers, id)
			c.KV.HDel(KeyBeat, id)
			c.KV.HDel(KeyDone, id)
			dead = append(dead, id)
			c.DeadWorkers++
			mDead.Inc()
			dlog.Warn("worker declared dead", "worker", id, "round", token)
		}
		if time.Now().After(deadline) {
			return dead, fmt.Errorf("dist: barrier timeout at round %s", token)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// reapDead requeues every claim owned by a dead worker's downloader
// ("<worker>:dl0", found by the "<worker>:" prefix), chaining a reap span
// onto the claim's propagated trace so the claim's story stays one trace
// across processes.
func (c *Coordinator) reapDead(dead []string) {
	sort.Strings(dead)
	for _, w := range dead {
		prefix := w + ":"
		claims := c.KV.HGetAll(download.KeyClaimed)
		ids := make([]string, 0)
		for sid, owner := range claims {
			if strings.HasPrefix(owner, prefix) {
				ids = append(ids, sid)
			}
		}
		sort.Strings(ids)
		for _, sid := range ids {
			raw, ok := c.KV.HGet(download.KeyActive, sid)
			c.KV.HDel(download.KeyClaimed, sid)
			if ok {
				c.KV.RPush(download.KeyQueue, raw)
			}
			if tp, ok := c.KV.HGet(KeyClaimTrace, sid); ok {
				if pc, ok := trace.ParseTraceparent(tp); ok {
					sp := trace.StartRemoteChild(pc, "dist.reap",
						trace.A("streamer", sid), trace.A("worker", w))
					sp.SetError("worker died holding claim")
					sp.End()
				}
				c.KV.HDel(KeyClaimTrace, sid)
			}
			c.ReapedClaims++
			mReapClaims.Inc()
			dlog.Warn("reaped dead worker's claim", "worker", w, "streamer", sid)
		}
		// Drop the dead worker's downloader heartbeats so the download
		// module's own orphan reaper never has to guess about them.
		for dlid := range c.KV.HGetAll(download.KeyWorkers) {
			if strings.HasPrefix(dlid, prefix) {
				c.KV.HDel(download.KeyWorkers, dlid)
			}
		}
	}
}

// rescueLost catches the one loss the claim record cannot: a worker killed
// between popping the queue and recording the claim. Post-barrier the queue
// is stable, so it can be snapshotted (drain + re-push, order preserved)
// and every active streamer that is neither claimed nor queued goes back on
// the queue.
func (c *Coordinator) rescueLost() {
	var queued []string
	for {
		raw, ok := c.KV.LPop(download.KeyQueue)
		if !ok {
			break
		}
		queued = append(queued, raw)
	}
	inQueue := make(map[string]bool, len(queued))
	for _, raw := range queued {
		var a struct {
			ID string `json:"id"`
		}
		if json.Unmarshal([]byte(raw), &a) == nil && a.ID != "" {
			inQueue[a.ID] = true
		}
	}
	if len(queued) > 0 {
		c.KV.RPush(download.KeyQueue, queued...)
	}
	claimed := c.KV.HGetAll(download.KeyClaimed)
	active := c.KV.HGetAll(download.KeyActive)
	ids := make([]string, 0, len(active))
	for sid := range active {
		if claimed[sid] == "" && !inQueue[sid] {
			ids = append(ids, sid)
		}
	}
	sort.Strings(ids)
	for _, sid := range ids {
		c.KV.RPush(download.KeyQueue, active[sid])
		c.LostRequeued++
		mRescued.Inc()
		dlog.Warn("requeued lost streamer", "streamer", sid)
	}
}

// ingest merges every pushed result into the pipeline, in key order, seen
// keys deduplicated: a crash-and-refetch pushes the same key again, and the
// second copy must not double-count. A document that is not a valid result
// for its key (DecodeResult) is dropped, counted in
// dist_results_rejected_total, and merges nothing. Measured readings get a
// dist.ingest span chained onto the worker's extract span, so the
// document's journey crosses the process boundary intact.
func (c *Coordinator) ingest() {
	for _, key := range c.Objects.List(ResultBucket, "") {
		if c.seen[key] {
			c.Objects.Delete(ResultBucket, key)
			c.Deduped++
			mDeduped.Inc()
			continue
		}
		obj, err := c.Objects.Get(ResultBucket, key)
		if err != nil {
			continue
		}
		r, err := DecodeResult(key, obj.Data)
		if err != nil {
			// Torn, or not a result ExtractThumb produces: dropped, and not
			// marked seen — the thumbnail's real result may still arrive.
			dlog.Warn("invalid result dropped", "key", key, "err", err)
			c.Objects.Delete(ResultBucket, key)
			mRejected.Inc()
			continue
		}
		res := pipeline.ThumbResult{
			Key: r.Key, Outcome: r.Outcome,
			Ms: r.Ms, Alt: r.Alt, HasAlt: r.HasAlt,
			Streamer: r.Streamer, Login: r.Login, Game: r.Game,
			At: r.At, AtUnix: r.AtUnix, AtOK: r.AtOK,
		}
		var ic trace.Context
		if r.Outcome == pipeline.OutcomeMeasured {
			if pc, ok := trace.ParseTraceparent(r.Traceparent); ok {
				t0 := time.Now()
				ic = trace.RecordSpan(pc, "dist.ingest", t0, t0, "",
					trace.A("worker", r.Worker))
			}
		}
		c.P.IngestResult(res, ic)
		c.Objects.Delete(ResultBucket, key)
		c.seen[key] = true
		c.Ingested++
		mIngested.Inc()
	}
}

// Stats reads the fleet's balance records, sorted by worker ID. Dead
// workers' last published records are included — the imbalance a crash
// leaves behind is exactly what the balance table should show.
func (c *Coordinator) Stats() []WorkerStats {
	m := c.KV.HGetAll(KeyStats)
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerStats, 0, len(ids))
	for _, id := range ids {
		if s, err := DecodeWorkerStats(m[id]); err == nil {
			out = append(out, s)
		}
	}
	return out
}
