package dist

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tero/internal/kvstore"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
)

var (
	mWRounds  = obs.C("dist_worker_rounds_total")
	mWClaims  = obs.C("dist_worker_claims_total")
	mWExtract = obs.C("dist_worker_extracts_total")
)

// WorkerConfig configures one ingest worker (the teroworker binary, or an
// in-process equivalent in tests and single-binary experiment legs).
type WorkerConfig struct {
	// ID names the worker; its downloader is "<ID>:dl0", the prefix the
	// coordinator uses to find a dead worker's claims.
	ID string
	// StoreAddr is the kvstore server all coordination and results go
	// through.
	StoreAddr string
	// Halt, when closed, makes the worker stop dead wherever it is — no
	// deregistration, no goodbye, heartbeats cease. The in-process crash
	// the worker-crash tests use; SIGKILL is the cross-process form.
	Halt <-chan struct{}
}

const (
	// pollWait is the pause between a worker's round-token polls.
	pollWait = 500 * time.Microsecond
	// beatEvery is the real-time heartbeat cadence.
	beatEvery = 25 * time.Millisecond
)

// RunWorker joins the fleet at cfg.StoreAddr and works rounds until the
// coordinator publishes the done sentinel (clean exit) or cfg.Halt closes
// (simulated crash). See the package comment for the protocol.
func RunWorker(cfg WorkerConfig) error {
	halted := func() bool {
		select {
		case <-cfg.Halt:
			return true
		default:
			return false
		}
	}

	kv, err := kvstore.DialStore(cfg.StoreAddr)
	if err != nil {
		return fmt.Errorf("dist worker %s: dial store: %w", cfg.ID, err)
	}
	defer kv.Close()

	// Heartbeats share the round's connection: the client sends one command
	// at a time, so a beat waits behind one command at most, far inside the
	// coordinator's deadAfter.
	beat := func() { kv.HSet(KeyBeat, cfg.ID, strconv.FormatInt(time.Now().UnixNano(), 10)) }
	beatStop := make(chan struct{})
	beatExit := make(chan struct{})
	// First beat lands before the roster entry: the coordinator must never
	// see a registered worker without a liveness record.
	beat()
	kv.HSet(KeyRoster, cfg.ID, "1")
	go func() {
		defer close(beatExit)
		t := time.NewTicker(beatEvery)
		defer t.Stop()
		for {
			select {
			case <-beatStop:
				return
			case <-cfg.Halt:
				return
			case <-t.C:
				beat()
			}
		}
	}()
	// Every return below stops the beats: a worker that has given up must
	// look dead to the coordinator, which then reaps and requeues its
	// claims, and an in-process fleet must not keep the goroutine. The clean
	// exit also stops them itself, before it deletes its liveness record.
	var stopOnce sync.Once
	stopBeats := func() { stopOnce.Do(func() { close(beatStop) }); <-beatExit }
	defer stopBeats()

	p := workerPipeline(cfg.ID, kv)
	push := func(key, doc string) error {
		kv.HSet(KeyResults, key, doc)
		return kv.Err() // the client does not redial: a lost store fails every push
	}

	dlog.Info("worker joined", "id", cfg.ID, "store", cfg.StoreAddr)

	// The worker starts on the first round token it reads; until then, as
	// between rounds, it polls.
	stats := WorkerStats{Worker: cfg.ID}
	for {
		if halted() {
			return nil
		}
		token, ok := kv.Get(KeyRound)
		if err := kv.Err(); err != nil {
			// The client does not redial: with the store gone every read
			// fails, and no round or done sentinel can ever arrive.
			return fmt.Errorf("dist worker %s: store lost: %w", cfg.ID, err)
		}
		if !ok || token == stats.Round {
			time.Sleep(pollWait)
			continue
		}
		if token == RoundDone {
			stopBeats()
			kv.HDel(KeyRoster, cfg.ID)
			kv.HDel(KeyBeat, cfg.ID)
			dlog.Info("worker done", "id", cfg.ID, "rounds", stats.Rounds,
				"claims", stats.Claims, "extracted", stats.Extracted)
			return nil
		}
		now, err := roundInstant(token)
		if err != nil {
			return fmt.Errorf("dist worker %s: %w", cfg.ID, err)
		}
		if err := workRound(p, cfg.ID, push, now, &stats, halted); err != nil {
			return err // not checked in: the coordinator reaps this worker's claims
		}
		if halted() {
			return nil // died before checking in: the round stays incomplete
		}
		stats.Round = token
		stats.Rounds++
		mWRounds.Inc()
		kv.HSet(KeyDone, cfg.ID, stats.Encode())
	}
}

// workerPipeline is a worker's own pipeline over its store connection. Its
// object store is the worker's local bucket: a thumbnail never leaves the
// process and costs the wire one result HSET. It never calls the platform
// API — assignments carry absolute URLs — so it has no base URL. Its one
// downloader is "<id>:dl0".
func workerPipeline(id string, kv kvstore.KV) *pipeline.Pipeline {
	p := pipeline.NewWithKV("", 1, kv)
	d := p.Downloaders[0]
	d.ID = id + ":dl0"
	d.ClaimTraceKey = KeyClaimTrace
	return p
}

// errHalted stops a round's drain when the worker has been halted.
var errHalted = errors.New("halted")

// workRound does one round at the frozen virtual instant now: the worker's
// pipeline services due fetches, takes its ceil-share of the queue with the
// fleet roster as the number of downloaders sharing it (TickShare), and
// starts extracting what it stores; the round then drains the local bucket
// (Pipeline.DrainThumbnails) into push — push(key, doc) stores the doc in
// KeyResults and returns the transport's error — instead of merging it.
// Workers deal concurrently, each to itself, but the shares cover the
// queue, so it drains within the round; makeup rounds are the backstop.
// Repeat rounds at the same instant are harmless — due times are virtual,
// so nothing comes due twice.
//
// A push that fails ends the round with its error and the thumbnail still
// in the local bucket: the reading has not reached the coordinator, so the
// round must not be checked in as done.
func workRound(p *pipeline.Pipeline, id string, push func(key, doc string) error,
	now time.Time, stats *WorkerStats, halted func() bool) error {
	d := p.Downloaders[0]
	claims := d.Claims
	roster := func() int { return len(p.KV.HGetAll(KeyRoster)) }
	// Degraded, not fatal: TickShare logs the poll errors, and the downloader
	// has already applied its per-streamer backoff/release recovery.
	p.TickShare(now, false, roster, halted) //nolint:errcheck
	stats.Claims = d.Claims
	mWClaims.Add(int64(d.Claims - claims))

	// Results are keyed by thumbnail key: a re-fetch after a crash
	// overwrites with identical bytes instead of duplicating.
	_, err := p.DrainThumbnails("dist.extract", func(r pipeline.ThumbResult, ctx trace.Context) error {
		if halted() {
			return errHalted
		}
		res := Result{ThumbResult: r, Traceparent: trace.Traceparent(ctx), Worker: id}
		if err := push(r.Key, string(res.Encode())); err != nil {
			return fmt.Errorf("dist worker %s: push result %s: %w", id, r.Key, err)
		}
		if r.Outcome == pipeline.OutcomeMeasured {
			stats.Extracted++
			mWExtract.Inc()
		}
		return nil
	})
	if errors.Is(err, errHalted) {
		return nil
	}
	stats.Fetches = d.Downloads
	return err
}
