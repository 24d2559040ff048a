package dist

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tero/internal/download"
	"tero/internal/imageproc"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/pipeline"
)

// recordingSink is the coordinator's object store as a worker sees it, with
// every Put written down. Its failAt-th Put fails instead of storing.
type recordingSink struct {
	store  *objstore.Store
	ops    []string // "Put dist-results <key>", ...
	calls  int
	failAt int
}

var errPush = errors.New("connection lost")

func (r *recordingSink) Put(bucket, key string, data []byte, meta map[string]string) (string, error) {
	if r.calls++; r.calls == r.failAt {
		return "", errPush
	}
	r.ops = append(r.ops, "Put "+bucket+" "+key)
	return r.store.Put(bucket, key, data, meta), nil
}

// TestWorkRoundKeepsThumbnailsLocal drives one worker round against a live
// platform and a recording wire store. Thumbnails are fetched and extracted,
// yet the only frames that cross the wire are one result Put per thumbnail
// and one quarantine Put for the corrupt one — no thumbnail Put (and the
// sink has no other method) — and a repeat round quarantines nothing twice.
func TestWorkRoundKeepsThumbnailsLocal(t *testing.T) {
	platform := newTestPlatform(t, 41)
	st := kvstore.New()
	p := pipeline.NewWithKV(platform.URL(), 1, st)
	if err := p.Coordinator.PollOnce(); err != nil {
		t.Fatalf("seed queue: %v", err)
	}
	if st.LLen(download.KeyQueue) == 0 {
		t.Fatal("no live streamer queued: the round would fetch nothing")
	}
	st.HSet(KeyWorkers, "w1", "1")

	wire := &recordingSink{store: objstore.New()}
	local := objstore.New()
	d := download.NewDownloader("w1:dl0", st, local)
	d.Claim = download.ClaimNone
	d.WindowStamp = true
	const corruptKey = "zz-corrupt/0001.pgm"
	local.Put(download.ThumbBucket, corruptKey, []byte("P5 truncated"), map[string]string{"game": "lol"})

	var stats WorkerStats
	round := func() {
		t.Helper()
		err := workRound("w1", st, wire, local, imageproc.New(), d,
			platform.Now(), &stats, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
	}
	round()
	if stats.Claims == 0 || d.Downloads == 0 {
		t.Fatalf("round fetched nothing: %+v, %d downloads", stats, d.Downloads)
	}

	results, quarantined := 0, 0
	for _, op := range wire.ops {
		switch {
		case op == "Put "+pipeline.QuarantineBucket+" "+corruptKey:
			quarantined++
		case strings.HasPrefix(op, "Put "+ResultBucket+" "):
			results++
		default:
			t.Errorf("unexpected wire operation %q", op)
		}
	}
	if quarantined != 1 {
		t.Errorf("corrupt thumbnail quarantined %d times, want once", quarantined)
	}
	if results != d.Downloads+1 {
		t.Errorf("%d results pushed for %d fetched thumbnails + 1 corrupt", results, d.Downloads)
	}
	if o, err := wire.store.Get(pipeline.QuarantineBucket, corruptKey); err != nil ||
		string(o.Data) != "P5 truncated" || o.Meta["game"] != "lol" {
		t.Errorf("quarantined object = %+v, %v", o, err)
	}
	if n := local.Size(download.ThumbBucket); n != 0 {
		t.Errorf("%d thumbnails left in the worker's local bucket after the round", n)
	}

	// A repeat round at the same frozen instant has nothing due and nothing
	// left to drain: the wire stays silent.
	sent := len(wire.ops)
	round()
	if len(wire.ops) != sent {
		t.Errorf("repeat round sent %q", wire.ops[sent:])
	}
}

// TestWorkRoundFailedPushKeepsThumbnail: a push that does not arrive — the
// quarantine copy or the result — ends the round with the error and leaves
// the thumbnail in the local bucket, so the reading is not silently lost.
func TestWorkRoundFailedPushKeepsThumbnail(t *testing.T) {
	const key = "zz-corrupt/0001.pgm"
	for i, what := range []string{"quarantine", "result"} { // a corrupt thumbnail's two pushes, in order
		wire := &recordingSink{store: objstore.New(), failAt: i + 1}
		local := objstore.New()
		local.Put(download.ThumbBucket, key, []byte("P5 truncated"), nil)
		var stats WorkerStats
		st := kvstore.New()
		d := download.NewDownloader("w1:dl0", st, local)
		d.Claim = download.ClaimNone
		round := func() error {
			return workRound("w1", st, wire, local, imageproc.New(), d,
				time.Time{}, &stats, func() bool { return false })
		}
		if err := round(); !errors.Is(err, errPush) {
			t.Fatalf("%s push failed, round returned %v", what, err)
		}
		if n := local.Size(download.ThumbBucket); n != 1 {
			t.Fatalf("%s push failed, %d thumbnails left in the local bucket, want 1", what, n)
		}
		if n := wire.store.Size(ResultBucket); n != 0 {
			t.Fatalf("%s push failed, yet %d results arrived", what, n)
		}
		// Nothing was dropped: with the wire back, a round delivers it.
		if err := round(); err != nil {
			t.Fatal(err)
		}
		if l, r, q := local.Size(download.ThumbBucket), wire.store.Size(ResultBucket),
			wire.store.Size(pipeline.QuarantineBucket); l != 0 || r != 1 || q != 1 {
			t.Fatalf("after the %s push recovered: %d local, %d results, %d quarantined", what, l, r, q)
		}
	}
}

// TestRunWorkerStopsOnFailedPush runs a worker against a store that refuses
// every object frame (no object store attached). Its first round fetches
// thumbnails whose results cannot be delivered: the worker must return the
// error without checking the round in, and its heartbeats must have stopped
// by then, so the coordinator declares it dead and requeues its claims.
func TestRunWorkerStopsOnFailedPush(t *testing.T) {
	platform := newTestPlatform(t, 41)
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := pipeline.NewWithKV(platform.URL(), 1, st).Coordinator.PollOnce(); err != nil {
		t.Fatalf("seed queue: %v", err)
	}
	st.Set(KeyPlatform, platform.URL())
	st.Set(KeyNow, platform.Now().UTC().Format(time.RFC3339Nano))
	st.Set(KeyRound, "0.0")

	halt := make(chan struct{})
	t.Cleanup(func() { close(halt) })
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{ID: "w1", StoreAddr: srv.Addr(),
			BeatEvery: time.Millisecond, Halt: halt})
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker still running after a round whose results never arrived")
	}
	if err == nil || !strings.Contains(err.Error(), "no object store attached") {
		t.Fatalf("RunWorker = %v, want the refused push", err)
	}
	if token, ok := st.HGet(KeyDone, "w1"); ok {
		t.Fatalf("worker checked in round %s, whose results never arrived", token)
	}
	beat, _ := st.HGet(KeyBeat, "w1")
	time.Sleep(20 * time.Millisecond) // twenty beat periods
	if later, _ := st.HGet(KeyBeat, "w1"); later != beat {
		t.Fatal("worker returned but is still beating")
	}
}
