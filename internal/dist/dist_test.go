package dist

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// testTicks is the 2-minute virtual ticks each test leg drives. The world is
// advanced into the evening first (sessions start in each streamer's local
// evening), so a short window still sees live streams.
const testTicks = 60

func newTestPlatform(t *testing.T, seed int64) *twitchsim.Platform {
	t.Helper()
	cfg := worldsim.DefaultConfig(seed)
	cfg.Streamers = 10
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)
	platform.Advance(23 * time.Hour)
	return platform
}

// pipelineSignature renders the pipeline's end state — counters plus every
// stored measurement — as comparable text. Distributed legs must match the
// single-process golden byte for byte.
func pipelineSignature(p *pipeline.Pipeline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "processed=%d extracted=%d zero=%d missed=%d quarantined=%d located=%d unlocated=%d\n",
		p.Processed, p.Extracted, p.Zero, p.Missed, p.Quarantined, p.Located, p.Unlocated)
	rows, _ := p.Docs.After(0)
	lines := make([]string, 0, len(rows))
	for _, m := range rows {
		lines = append(lines, fmt.Sprintf("%s|%s|%v|%t|%v|%d",
			m.Streamer, m.Game, m.Ms, m.HasAlt, m.Alt, m.AtUnix))
	}
	sort.Strings(lines)
	sb.WriteString(strings.Join(lines, "\n"))
	return sb.String()
}

// goldenRun is the single-process reference: the unmodified production
// pipeline, four downloaders at the default concurrency.
func goldenRun(t *testing.T, seed int64) string {
	t.Helper()
	platform := newTestPlatform(t, seed)
	p := pipeline.New(platform.URL(), 4)
	if err := pipeline.Drive(platform, p, nil, testTicks, pipeline.TickEvery, nil); err != nil {
		t.Fatalf("golden: %v", err)
	}
	return pipelineSignature(p)
}

// queueKV is the coordinator's store with every LPOP and RPUSH it sends to
// the download queue counted.
type queueKV struct {
	kvstore.KV
	pops, pushes int
}

func (q *queueKV) LPop(key string) (string, bool) {
	if key == download.KeyQueue {
		q.pops++
	}
	return q.KV.LPop(key)
}

func (q *queueKV) RPush(key string, values ...string) int {
	if key == download.KeyQueue {
		q.pushes++
	}
	return q.KV.RPush(key, values...)
}

type testWorker struct {
	halt chan struct{}
	done chan error
}

func (w *testWorker) kill() { close(w.halt); <-w.done }

// distRun drives a fleet of n in-process workers over real TCP through the
// same observation window as goldenRun. crashTick >= 0 halts worker 0 after
// that tick. The coordinator's store is a *queueKV.
func distRun(t *testing.T, seed int64, n, crashTick int) (*pipeline.Pipeline, *Coordinator, *twitchsim.Platform) {
	t.Helper()
	platform := newTestPlatform(t, seed)

	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	p := pipeline.NewWithKV(platform.URL(), 1, st)
	p.Concurrency = 1
	coord := NewCoordinator(p, &queueKV{KV: st})

	workers := make([]*testWorker, n)
	for i := range workers {
		w := &testWorker{halt: make(chan struct{}), done: make(chan error, 1)}
		id := "w" + strconv.Itoa(i+1)
		go func() {
			w.done <- RunWorker(WorkerConfig{ID: id, StoreAddr: srv.Addr(), Halt: w.halt})
		}()
		workers[i] = w
	}
	if err := coord.WaitWorkers(context.Background(), n, 10*time.Second); err != nil {
		t.Fatalf("wait workers: %v", err)
	}

	crash := func(i int) error {
		if i == crashTick {
			workers[0].kill()
		}
		return nil
	}
	if err := pipeline.Drive(platform, p, coord, testTicks, pipeline.TickEvery, crash); err != nil {
		t.Fatal(err)
	}
	coord.EndRun()
	for i, w := range workers {
		if i == 0 && crashTick >= 0 {
			continue // killed
		}
		if err := <-w.done; err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}
	return p, coord, platform
}

// TestDistByteIdentity: fleets of 1 and 2 workers over TCP produce exactly
// the documents and counters of the single-process golden run.
func TestDistByteIdentity(t *testing.T) {
	gold := goldenRun(t, 41)
	if !strings.Contains(gold, "extracted=") || strings.Contains(gold, "extracted=0 ") {
		t.Fatalf("golden run extracted nothing:\n%s", gold)
	}
	for _, n := range []int{1, 2} {
		p, coord, _ := distRun(t, 41, n, -1)
		if sig := pipelineSignature(p); sig != gold {
			t.Fatalf("fleet=%d signature differs from golden:\n--- golden:\n%s\n--- fleet:\n%s",
				n, gold, sig)
		}
		if coord.Ingested == 0 {
			t.Fatalf("fleet=%d ingested no results", n)
		}
		if coord.DeadWorkers != 0 {
			t.Fatalf("fleet=%d declared %d workers dead in a crash-free run", n, coord.DeadWorkers)
		}
		// Without a death the coordinator never touches the queue in a round:
		// the lost-claim sweep waits for a death.
		if q := coord.KV.(*queueKV); q.pops != 0 || q.pushes != 0 {
			t.Fatalf("fleet=%d: a crash-free run's rounds sent %d LPOPs and %d RPUSHes to %s",
				n, q.pops, q.pushes, download.KeyQueue)
		}
		if got := len(coord.Stats()); got != n {
			t.Fatalf("fleet=%d: %d balance records after the fleet left, want %d", n, got, n)
		}
	}
}

// TestDistCrashRecovery: one of two workers is halted mid-claim (heartbeats
// stop, no goodbye). The coordinator must declare it dead, requeue the
// claims it held, and still end byte-identical to the crash-free golden.
func TestDistCrashRecovery(t *testing.T) {
	gold := goldenRun(t, 43)
	p, coord, _ := distRun(t, 43, 2, testTicks/3)
	if coord.DeadWorkers != 1 {
		t.Fatalf("declared %d workers dead, want 1", coord.DeadWorkers)
	}
	if coord.ReapedClaims < 1 {
		t.Fatal("the killed worker held no claim: the leg never exercised the reap")
	}
	if stats := coord.Stats(); len(stats) != 2 || stats[0].Worker != "w1" {
		t.Fatalf("balance records %+v, want the killed w1's and w2's", stats)
	}
	if sig := pipelineSignature(p); sig != gold {
		t.Fatalf("crash leg diverged from golden:\n--- golden:\n%s\n--- crash:\n%s", gold, sig)
	}
	t.Logf("crash leg: %d claims reaped, %d lost requeued, %d duplicates deduped",
		coord.ReapedClaims, coord.LostRequeued, coord.Deduped)
}

// TestDistTraceChain: a reading fetched and extracted in a worker and merged
// by the coordinator is one trace — download.fetch (worker) -> dist.extract
// (worker) -> dist.ingest (coordinator) -> analyze/publish — stitched across
// the process boundary by the traceparent carried in the result document.
func TestDistTraceChain(t *testing.T) {
	trace.Enable(77)
	trace.SetSampleN(1)
	t.Cleanup(func() {
		trace.Disable()
		trace.SetVirtualClock(nil)
	})
	p, _, platform := distRun(t, 47, 2, -1)
	b := serve.NewBuilder(core.DefaultParams())
	p.PublishAt(b, core.DefaultParams(), platform.Now())

	for _, tr := range trace.ActiveStore().Traces() {
		if tr.Root != "download.fetch" {
			continue
		}
		byID := make(map[uint64]trace.SpanData, len(tr.Spans))
		byName := make(map[string]trace.SpanData, len(tr.Spans))
		for _, s := range tr.Spans {
			byID[s.SpanID] = s
			byName[s.Name] = s
		}
		ext, okE := byName["dist.extract"]
		ing, okI := byName["dist.ingest"]
		if !okE || !okI {
			continue
		}
		if ing.ParentID != ext.SpanID {
			t.Fatalf("dist.ingest parent %016x is not the dist.extract span %016x",
				ing.ParentID, ext.SpanID)
		}
		// The extract span must chain back to the journey root within the
		// same trace.
		for id := ext.ParentID; id != 0; {
			s, ok := byID[id]
			if !ok {
				t.Fatalf("dist.extract ancestor %016x missing from trace", id)
			}
			id = s.ParentID
		}
		return
	}
	var roots []string
	for _, tr := range trace.ActiveStore().Traces() {
		roots = append(roots, tr.Root)
	}
	t.Fatalf("no journey trace crosses the worker boundary (dist.extract + dist.ingest); roots: %s",
		strings.Join(roots, ", "))
}

// TestReapDead: a dead worker's claims are requeued and released; other
// workers' claims are untouched.
func TestReapDead(t *testing.T) {
	st := kvstore.New()
	c := NewCoordinator(nil, st)
	st.HSet(download.KeyActive, "s1", `{"id":"s1"}`)
	st.HSet(download.KeyClaimed, "s1", "w1:dl0")
	st.HSet(download.KeyActive, "s2", `{"id":"s2"}`)
	st.HSet(download.KeyClaimed, "s2", "w2:dl0")

	c.reapDead([]string{"w1"})

	if _, ok := st.HGet(download.KeyClaimed, "s1"); ok {
		t.Fatal("dead worker's claim on s1 not released")
	}
	if v, _ := st.HGet(download.KeyClaimed, "s2"); v != "w2:dl0" {
		t.Fatalf("live worker's claim disturbed: %q", v)
	}
	if raw, ok := st.LPop(download.KeyQueue); !ok || raw != `{"id":"s1"}` {
		t.Fatalf("s1 not requeued: %q, %v", raw, ok)
	}
	if _, ok := st.LPop(download.KeyQueue); ok {
		t.Fatal("more than one assignment requeued")
	}
	if c.ReapedClaims != 1 {
		t.Fatalf("ReapedClaims = %d, want 1", c.ReapedClaims)
	}
}

// TestRescueLost: an active streamer that is neither claimed nor queued (a
// worker died between LPOP and recording its claim) stays lost through a
// round without a death, and goes back on the queue in the reap after one,
// behind the dead worker's requeued claim; claimed and already-queued
// streamers do not.
func TestRescueLost(t *testing.T) {
	st := kvstore.New()
	c := NewCoordinator(nil, st)
	st.HSet(download.KeyActive, "s1", `{"id":"s1"}`) // lost: not claimed, not queued
	st.HSet(download.KeyActive, "s2", `{"id":"s2"}`) // claimed by a live worker
	st.HSet(download.KeyClaimed, "s2", "w1:dl0")
	st.HSet(download.KeyActive, "s4", `{"id":"s4"}`) // claimed by the worker that dies
	st.HSet(download.KeyClaimed, "s4", "w2:dl0")

	st.HSet(KeyBeat, "w1", "1")
	st.HSet(KeyRoster, "w1", "1")
	exited := checkInRounds(st, "w1", 0)
	if err := c.Tick(time.Unix(0, 0), 0, false); err != nil {
		t.Fatal(err)
	}
	c.EndRun()
	<-exited
	if n := st.LLen(download.KeyQueue); n != 0 || c.LostRequeued != 0 {
		t.Fatalf("a round without a death queued %d, requeued %d lost", n, c.LostRequeued)
	}

	st.HSet(download.KeyActive, "s3", `{"id":"s3"}`) // already queued
	st.RPush(download.KeyQueue, `{"id":"s3"}`)
	c.reapDead([]string{"w2"})

	if c.ReapedClaims != 1 || c.LostRequeued != 1 {
		t.Fatalf("ReapedClaims = %d, LostRequeued = %d, want 1, 1", c.ReapedClaims, c.LostRequeued)
	}
	var got []string
	for {
		raw, ok := st.LPop(download.KeyQueue)
		if !ok {
			break
		}
		got = append(got, raw)
	}
	// Order preserved, the reaped claim appended, then the rescue.
	want := []string{`{"id":"s3"}`, `{"id":"s4"}`, `{"id":"s1"}`}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("queue after the reap = %v, want %v", got, want)
	}
}

// checkInRounds is RunWorker's round loop with no work in the rounds: it
// checks in every round token it reads for worker id, delay after reading
// it, until the done sentinel.
func checkInRounds(st *kvstore.Store, id string, delay time.Duration) (exited <-chan struct{}) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats := WorkerStats{Worker: id}
		for {
			token, _ := st.Get(KeyRound)
			switch token {
			case RoundDone:
				return
			case "", stats.Round:
				time.Sleep(pollWait)
			default:
				time.Sleep(delay)
				stats.Round = token
				stats.Rounds++
				st.HSet(KeyDone, id, stats.Encode())
			}
		}
	}()
	return done
}

// skewedBeats heartbeats for worker id every 25 ms with a wall clock that is
// off by skew, the way a worker on another host would, until stop closes.
// The first beat has landed when it returns.
func skewedBeats(st *kvstore.Store, id string, skew time.Duration, stop <-chan struct{}) (exited <-chan struct{}) {
	beat := func() {
		st.HSet(KeyBeat, id, strconv.FormatInt(time.Now().Add(skew).UnixNano(), 10))
	}
	beat()
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				beat()
			}
		}
	}()
	return done
}

// TestSkewedWorkerCompletesRun: a worker whose clock is an hour behind the
// coordinator's, beating normally and checking every round in late enough
// for the barrier to read its beat many times, is never declared dead.
// (Comparing the two clocks killed it the first time the barrier looked.)
func TestSkewedWorkerCompletesRun(t *testing.T) {
	st := kvstore.New()
	c := NewCoordinator(nil, st)
	stop := make(chan struct{})
	beatsExited := skewedBeats(st, "w1", -time.Hour, stop)
	st.HSet(KeyRoster, "w1", "1")
	workerExited := checkInRounds(st, "w1", 50*time.Millisecond)
	for tick := 0; tick < 3; tick++ {
		if err := c.Tick(time.Unix(0, 0), tick, false); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	c.EndRun()
	<-workerExited
	close(stop)
	<-beatsExited
	if c.DeadWorkers != 0 || c.Rounds != 3 {
		t.Fatalf("dead=%d rounds=%d, want 0 dead over 3 rounds", c.DeadWorkers, c.Rounds)
	}
}

// TestFrozenBeatIsReaped: a beat stamped an hour in the future that never
// changes again belongs to a dead worker, whatever the stamp says; it is
// reaped once it has stood still for deadAfter of the coordinator's time.
// (Measured against the coordinator's clock it outlived its death by the
// skew, and the barrier timed out.)
func TestFrozenBeatIsReaped(t *testing.T) {
	st := kvstore.New()
	c := NewCoordinator(nil, st)
	st.HSet(KeyRoster, "live", "1")
	token := roundToken(0, 0, time.Unix(0, 0))
	// Already checked in: only "frozen" blocks.
	st.HSet(KeyDone, "live", WorkerStats{Worker: "live", Round: token}.Encode())
	st.HSet(KeyRoster, "frozen", "1")
	st.HSet(KeyBeat, "frozen", strconv.FormatInt(time.Now().Add(time.Hour).UnixNano(), 10))

	start := time.Now()
	dead, err := c.barrier(token)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != "frozen" {
		t.Fatalf("dead = %v, want [frozen]", dead)
	}
	if took < deadAfter || took > 3*deadAfter {
		t.Fatalf("reaped after %v, want about %v", took, deadAfter)
	}
	if _, ok := st.HGet(KeyRoster, "frozen"); ok {
		t.Fatal("dead worker still on the roster")
	}
	if _, ok := st.HGet(KeyRoster, "live"); !ok {
		t.Fatal("live worker dropped from the roster")
	}
}
