package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/pipeline"
)

// wireKV is a worker's store connection with every write it sends written
// down: the command and key (and field), and the values it carried.
type wireKV struct {
	kvstore.KV
	mu     sync.Mutex
	ops    []string // "HSET dist:results <key>", "RPUSH dl:queue", ...
	values []string
}

func (w *wireKV) sent(op string, values ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ops = append(w.ops, op)
	w.values = append(w.values, values...)
}

func (w *wireKV) Set(key, value string) { w.sent("SET "+key, value); w.KV.Set(key, value) }

func (w *wireKV) HSet(key, field, value string) bool {
	w.sent("HSET "+key+" "+field, value)
	return w.KV.HSet(key, field, value)
}

func (w *wireKV) RPush(key string, values ...string) int {
	w.sent("RPUSH "+key, values...)
	return w.KV.RPush(key, values...)
}

var errPush = errors.New("connection lost")

// TestWorkRoundKeepsThumbnailsLocal drives one worker round against a live
// platform, every write to the store recorded. Thumbnails are fetched and
// extracted, yet the only result traffic is one dist:results HSET per
// thumbnail, no value on the wire is a thumbnail (PGM magic "P5"), and the
// corrupt thumbnail is pushed once and deleted like the rest: the local
// bucket ends empty and the worker writes no other; a repeat round sends
// nothing.
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
	st.HSet(KeyRoster, "w1", "1")

	wire := &wireKV{KV: st}
	push := func(key, doc string) error { wire.HSet(KeyResults, key, doc); return nil }
	wp := workerPipeline("w1", wire)
	d := wp.Downloaders[0]
	local := &bucketSpy{API: wp.Objects, buckets: map[string]bool{}}
	wp.Objects, d.Store = local, local
	const corruptKey = "zz-corrupt/0001.pgm"
	local.Put(download.ThumbBucket, corruptKey, []byte("P5 truncated"), map[string]string{"game": "lol"})

	var stats WorkerStats
	round := func() {
		t.Helper()
		if err := workRound(wp, "w1", push, platform.Now(), &stats, func() bool { return false }); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if stats.Claims == 0 || d.Downloads == 0 {
		t.Fatalf("round fetched nothing: %+v, %d downloads", stats, d.Downloads)
	}

	pushed := map[string]int{}
	for _, op := range wire.ops {
		if key, ok := strings.CutPrefix(op, "HSET "+KeyResults+" "); ok {
			pushed[key]++
		} else if strings.Contains(op, KeyResults) {
			t.Errorf("unexpected result traffic %q", op)
		}
	}
	if len(pushed) != d.Downloads+1 {
		t.Errorf("%d results pushed for %d fetched thumbnails + 1 corrupt", len(pushed), d.Downloads)
	}
	for key, n := range pushed {
		if n != 1 {
			t.Errorf("result %s pushed %d times, want once", key, n)
		}
	}
	for _, v := range wire.values {
		if strings.HasPrefix(v, "P5") {
			t.Errorf("a thumbnail crossed the wire (%d bytes)", len(v))
		}
	}
	if n := local.Size(download.ThumbBucket); n != 0 {
		t.Errorf("%d thumbnails left in the worker's local bucket after the round", n)
	}
	// The coordinator counts the corrupt thumbnail from its result.
	NewCoordinator(p, st).ingest()
	if p.Quarantined != 1 || p.Processed != d.Downloads {
		t.Errorf("ingested: quarantined %d, processed %d; want 1, %d", p.Quarantined, p.Processed, d.Downloads)
	}

	// A repeat round at the same frozen instant has nothing due and nothing
	// left to drain: the wire stays silent.
	sent := len(wire.ops)
	round()
	if len(wire.ops) != sent {
		t.Errorf("repeat round sent %q", wire.ops[sent:])
	}
	if len(local.buckets) != 1 || !local.buckets[download.ThumbBucket] {
		t.Errorf("buckets written: %v, want only %s", local.buckets, download.ThumbBucket)
	}
}

// bucketSpy is an object store that remembers every bucket written to.
type bucketSpy struct {
	objstore.API
	mu      sync.Mutex
	buckets map[string]bool
}

func (s *bucketSpy) Put(bucket, key string, data []byte, meta map[string]string) string {
	s.mu.Lock()
	s.buckets[bucket] = true
	s.mu.Unlock()
	return s.API.Put(bucket, key, data, meta)
}

// TestWorkRoundFailedPushKeepsThumbnail: a result push that does not arrive
// ends the round with the error and leaves the thumbnail in the local
// bucket, so the reading is not silently lost.
func TestWorkRoundFailedPushKeepsThumbnail(t *testing.T) {
	const key = "zz-corrupt/0001.pgm"
	st := kvstore.New()
	calls := 0
	push := func(key, doc string) error {
		if calls++; calls == 1 {
			return errPush
		}
		st.HSet(KeyResults, key, doc)
		return nil
	}
	wp := workerPipeline("w1", st)
	local := wp.Objects
	local.Put(download.ThumbBucket, key, []byte("P5 truncated"), nil)
	var stats WorkerStats
	round := func() error {
		return workRound(wp, "w1", push, time.Time{}, &stats, func() bool { return false })
	}
	if err := round(); !errors.Is(err, errPush) {
		t.Fatalf("push failed, round returned %v", err)
	}
	if n := local.Size(download.ThumbBucket); n != 1 {
		t.Fatalf("push failed, %d thumbnails left in the local bucket, want 1", n)
	}
	if n := len(st.HGetAll(KeyResults)); n != 0 {
		t.Fatalf("push failed, yet %d results arrived", n)
	}
	// Nothing was dropped: with the wire back, a round delivers it.
	if err := round(); err != nil {
		t.Fatal(err)
	}
	if l, r := local.Size(download.ThumbBucket), len(st.HGetAll(KeyResults)); l != 0 || r != 1 {
		t.Fatalf("after the push recovered: %d local, %d results; want 0, 1", l, r)
	}
}

// wireTap is what a tapProxy's clients sent, one buffer per connection in
// the order they were accepted.
type wireTap struct {
	mu    sync.Mutex
	conns []*bytes.Buffer
}

// commands parses what each connection sent into its commands.
func (w *wireTap) commands() [][][]string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([][][]string, len(w.conns))
	for i, b := range w.conns {
		r := bufio.NewReader(bytes.NewReader(b.Bytes()))
		for {
			var n int
			if _, err := fmt.Fscanf(r, "*%d\r\n", &n); err != nil {
				break
			}
			cmd := make([]string, n)
			for j := range cmd {
				var size int
				if _, err := fmt.Fscanf(r, "$%d\r\n", &size); err != nil {
					break
				}
				arg := make([]byte, size+2)
				io.ReadFull(r, arg) //nolint:errcheck // a torn tail parses short
				cmd[j] = string(arg[:size])
			}
			out[i] = append(out[i], cmd)
		}
	}
	return out
}

// tapProxy forwards connections to addr, writing down what every client
// sends, until a client sends a command that contains cut (when cut is not
// empty): that command is not delivered, and its connection is closed.
func tapProxy(t *testing.T, addr, cut string) (string, *wireTap) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tap := &wireTap{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				continue
			}
			sent := &bytes.Buffer{}
			tap.mu.Lock()
			tap.conns = append(tap.conns, sent)
			tap.mu.Unlock()
			go func() { io.Copy(c, s); c.Close() }() //nolint:errcheck // ends when either side closes
			go func() {
				defer c.Close()
				defer s.Close()
				var tail []byte // a command split across two reads still matches
				buf := make([]byte, 64<<10)
				for {
					n, err := c.Read(buf)
					seen := append(tail, buf[:n]...)
					if cut != "" && bytes.Contains(seen, []byte(cut)) {
						return
					}
					tail = seen[max(0, len(seen)-len(cut)):]
					tap.mu.Lock()
					sent.Write(buf[:n])
					tap.mu.Unlock()
					if _, werr := s.Write(buf[:n]); werr != nil || err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), tap
}

// TestWorkerRoundTraffic runs a worker through two rounds with nothing to
// fetch, every command it sends written down. It holds one store connection,
// beats included; the only key it reads with GET is the round token, which
// carries the round's instant; and it checks each round in with a single
// HSET of dist:done, a balance record naming the round. Nothing else it
// writes is protocol state.
func TestWorkerRoundTraffic(t *testing.T) {
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, tap := tapProxy(t, srv.Addr(), "")
	halt := make(chan struct{})
	t.Cleanup(func() { close(halt) })
	done := make(chan error, 1)
	go func() { done <- RunWorker(WorkerConfig{ID: "w1", StoreAddr: addr, Halt: halt}) }()

	at := time.Unix(0, 0)
	tokens := []string{roundToken(0, 0, at), roundToken(0, 1, at)}
	for _, token := range tokens {
		st.Set(KeyRound, token)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, _ := st.HGet(KeyDone, "w1"); checkedIn(v, token) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker never checked in round %s", token)
			}
		}
	}
	time.Sleep(2 * beatEvery) // a beat or two between rounds
	st.Set(KeyRound, RoundDone)
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker still running after the run ended")
	}
	if err != nil {
		t.Fatal(err)
	}

	conns := tap.commands()
	if len(conns) != 1 {
		t.Fatalf("worker opened %d store connections, want 1", len(conns))
	}
	var checkIns []WorkerStats
	beats := 0
	for _, cmd := range conns[0] {
		switch {
		case cmd[0] == "GET" && cmd[1] != KeyRound:
			t.Errorf("worker read %s", cmd[1])
		case cmd[0] == "HSET" && cmd[1] == KeyDone:
			ws, err := DecodeWorkerStats(cmd[3])
			if err != nil {
				t.Fatalf("check-in %q: %v", cmd[3], err)
			}
			checkIns = append(checkIns, ws)
		case cmd[0] == "HSET" && cmd[1] == KeyBeat:
			beats++
		case cmd[0] == "HSET" || cmd[0] == "HDEL":
			if cmd[1] != KeyRoster && cmd[1] != KeyBeat {
				t.Errorf("worker wrote %q", cmd[:2])
			}
		case cmd[0] != "GET" && cmd[0] != "LLEN":
			t.Errorf("worker sent %q", cmd[:2])
		}
	}
	if len(checkIns) != len(tokens) {
		t.Fatalf("%d check-ins over %d rounds: %+v", len(checkIns), len(tokens), checkIns)
	}
	for i, ws := range checkIns {
		if ws.Worker != "w1" || ws.Round != tokens[i] || ws.Rounds != i+1 {
			t.Errorf("check-in %d = %+v, want round %s, %d rounds", i, ws, tokens[i], i+1)
		}
	}
	if beats < 2 {
		t.Errorf("%d beats over the connection, want the first one and more", beats)
	}
}

// TestRunWorkerStopsOnFailedPush runs a worker whose store connection closes
// on its first result push. Its first round fetches thumbnails whose results
// cannot be delivered: the worker must return the error without checking the
// round in, and its heartbeats must have stopped by then, so the coordinator
// declares it dead and requeues its claims.
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
	st.Set(KeyRound, roundToken(0, 0, platform.Now()))
	addr, _ := tapProxy(t, srv.Addr(), KeyResults)

	halt := make(chan struct{})
	t.Cleanup(func() { close(halt) })
	done := make(chan error, 1)
	go func() { done <- RunWorker(WorkerConfig{ID: "w1", StoreAddr: addr, Halt: halt}) }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker still running after a round whose results never arrived")
	}
	if err == nil || !strings.Contains(err.Error(), "push result") {
		t.Fatalf("RunWorker = %v, want the failed push", err)
	}
	if n := len(st.HGetAll(KeyResults)); n != 0 {
		t.Fatalf("%d results arrived over a cut connection", n)
	}
	if token, ok := st.HGet(KeyDone, "w1"); ok {
		t.Fatalf("worker checked in round %s, whose results never arrived", token)
	}
	beat, _ := st.HGet(KeyBeat, "w1")
	time.Sleep(3 * beatEvery)
	if later, _ := st.HGet(KeyBeat, "w1"); later != beat {
		t.Fatal("worker returned but is still beating")
	}
}

// TestRunWorkerExitsWhenStoreCloses: a worker whose store goes away without
// publishing the done sentinel (a coordinator that exits on an error) returns
// the transport error instead of polling a dead connection forever.
func TestRunWorkerExitsWhenStoreCloses(t *testing.T) {
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	token := roundToken(0, 0, time.Unix(0, 0))
	st.Set(KeyRound, token)

	halt := make(chan struct{})
	t.Cleanup(func() { close(halt) })
	done := make(chan error, 1)
	go func() { done <- RunWorker(WorkerConfig{ID: "w1", StoreAddr: srv.Addr(), Halt: halt}) }()
	// Once it has checked a round in, the worker is polling for the next.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ := st.HGet(KeyDone, "w1"); checkedIn(v, token) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never checked in its first round")
		}
	}
	srv.Close()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker still running 10 s after its store closed")
	}
	if err == nil {
		t.Fatal("RunWorker returned nil after its store closed")
	}
}

// TestRunWorkerStoreLostBeforeStart: a worker whose store closes after it
// registered but before the first round token returns "store lost" at once
// instead of polling a dead connection for a round that cannot arrive.
func TestRunWorkerStoreLostBeforeStart(t *testing.T) {
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	halt := make(chan struct{})
	t.Cleanup(func() { close(halt) })
	done := make(chan error, 1)
	go func() { done <- RunWorker(WorkerConfig{ID: "w1", StoreAddr: srv.Addr(), Halt: halt}) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := st.HGet(KeyRoster, "w1"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
	}
	srv.Close()
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker still waiting for its first round 2 s after its store closed")
	}
	if err == nil || !strings.Contains(err.Error(), "store lost") {
		t.Fatalf("RunWorker = %v, want store lost", err)
	}
}
