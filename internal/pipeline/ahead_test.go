package pipeline

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tero/internal/download"
	"tero/internal/imaging"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/worldsim"
)

// handCDN is a CDN for one streamer whose current thumbnail (sequence number
// and body) the test sets by hand; a thumbnail is due on every poll.
type handCDN struct {
	srv  *httptest.Server
	seq  atomic.Int64
	body atomic.Pointer[[]byte]
	good []byte // a thumbnail that decodes
	id   string // the streamer
	n    int    // ticks served: the virtual clock, two minutes each
}

// newHandCDN starts the CDN and a one-downloader pipeline with the streamer
// queued for adoption.
func newHandCDN(t *testing.T, concurrency int) (*handCDN, *Pipeline) {
	t.Helper()
	world := worldsim.New(worldsim.DefaultConfig(1234))
	st := world.Streamers[0]
	gs := world.Sessions(st)[0]
	img, _ := worldsim.RenderDeterministic(gs, 0, worldsim.DefaultRenderOptions())
	var buf bytes.Buffer
	if err := img.EncodePGM(&buf); err != nil {
		t.Fatal(err)
	}
	imaging.Recycle(img)
	c := &handCDN{good: buf.Bytes(), id: st.ID}
	c.body.Store(&c.good)
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("X-Thumbnail-Seq", strconv.FormatInt(c.seq.Load(), 10))
		h.Set("X-Next-Thumbnail", time.Unix(0, 0).UTC().Format(time.RFC3339))
		if r.Method == http.MethodGet {
			w.Write(*c.body.Load())
		}
	}))
	t.Cleanup(c.srv.Close)

	p := New(c.srv.URL, 1)
	p.Concurrency = concurrency
	a, err := json.Marshal(download.Assignment{
		StreamerID: st.ID, Login: st.Username, Game: gs.Game.Name, URL: c.srv.URL + "/thumb/" + st.ID + ".pgm",
	})
	if err != nil {
		t.Fatal(err)
	}
	p.KV.RPush(download.KeyQueue, string(a))
	return c, p
}

func (c *handCDN) key(seq int64) string { return c.id + "/" + strconv.FormatInt(seq, 10) + ".pgm" }

// tick serves thumbnail seq to one Tick, two virtual minutes after the last.
func (c *handCDN) tick(t *testing.T, p *Pipeline, seq int64) {
	t.Helper()
	c.seq.Store(seq)
	c.n++
	if err := p.Tick(time.Date(2026, 1, 1, 12, 2*c.n, 0, 0, time.UTC), false); err != nil {
		t.Fatalf("tick for thumbnail %d: %v", seq, err)
	}
}

// settle waits until the process is back to at most base goroutines: a
// background extraction exits on its own, a moment after its result is set.
func settle(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExtractAheadDeterminism runs one downloader through the production
// loop serially and with extraction riding the download on 2 or 8 workers:
// refresh by refresh, all three store, queue, serve and derive the same bytes.
func TestExtractAheadDeterminism(t *testing.T) {
	serial := driveLoop(t, 1, 1)
	for _, c := range []int{2, 8} {
		if got := driveLoop(t, 1, c); got != serial {
			a, b := diffLine(serial, got)
			t.Fatalf("Concurrency 1 and %d diverge:\n serial: %s\n ahead:  %s", c, a, b)
		}
	}
}

// TestRestoredKeyIsExtractedAgain stores a key, lets its extraction finish,
// and stores the same key again (a streamer's second session restarts its
// sequence numbers) before the merge: the merge must ingest what the bucket
// holds, not what was extracted first.
func TestRestoredKeyIsExtractedAgain(t *testing.T) {
	c, p := newHandCDN(t, 2)
	c.tick(t, p, 5)
	first := p.ahead[c.key(5)]
	if first == nil {
		t.Fatal("the tick started no extraction for the key it stored")
	}
	<-first.done
	c.tick(t, p, 6)
	c.tick(t, p, 5)
	if p.ahead[c.key(5)] == first {
		t.Fatal("the key was stored again and its stale extraction kept")
	}
	obj, err := p.Objects.Get(download.ThumbBucket, c.key(5))
	if err != nil {
		t.Fatal(err)
	}
	stored := obj.Meta["at"]
	if stored == stamp(first.r.AtUnix) {
		t.Fatalf("both stores of the key carry at=%s: the test stores nothing different", stored)
	}
	if n := p.ProcessThumbnails(); n != 2 {
		t.Fatalf("drained %d thumbnails, want 2", n)
	}
	rows, _ := p.Docs.After(0)
	if len(rows) != 2 {
		t.Fatalf("%d measurements, want 2 (the rendered thumbnail must be legible)", len(rows))
	}
	if got := stamp(rows[0].AtUnix); got != stored { // rows are in key order: …/5.pgm first
		t.Fatalf("measurement of the re-stored key has at=%v, the bucket held at=%s", got, stored)
	}
}

// stamp renders unix seconds as the downloader stamps a thumbnail.
func stamp(unix int64) string { return time.Unix(unix, 0).UTC().Format(time.RFC3339) }

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

// TestCorruptThumbnailAheadQuarantinedOnce stores an undecodable body
// mid-run: its background extraction judges it corrupt, and the merge — not
// the background — counts it, once, and deletes it like every other
// thumbnail: the bucket ends empty and nothing is written anywhere else.
func TestCorruptThumbnailAheadQuarantinedOnce(t *testing.T) {
	c, p := newHandCDN(t, 2)
	spy := &bucketSpy{API: p.Objects, buckets: map[string]bool{}}
	p.Objects, p.Downloaders[0].Store = spy, spy
	c.tick(t, p, 0)
	cut := c.good[:len(c.good)/2]
	c.body.Store(&cut)
	c.tick(t, p, 1)
	if p.Quarantined != 0 || p.Objects.Size(download.ThumbBucket) != 2 {
		t.Fatalf("before the merge: quarantined %d, %d thumbnails stored; want 0, 2",
			p.Quarantined, p.Objects.Size(download.ThumbBucket))
	}
	c.body.Store(&c.good)
	c.tick(t, p, 2)
	for round := 0; round < 2; round++ { // a second drain finds nothing to do again
		p.ProcessThumbnails()
		if p.Quarantined != 1 || p.Processed != 2 || p.Objects.Size(download.ThumbBucket) != 0 {
			t.Fatalf("drain %d: quarantined %d, processed %d, %d thumbnails left; want 1, 2, 0", round,
				p.Quarantined, p.Processed, p.Objects.Size(download.ThumbBucket))
		}
	}
	if len(spy.buckets) != 1 || !spy.buckets[download.ThumbBucket] {
		t.Fatalf("buckets written: %v, want only %s", spy.buckets, download.ThumbBucket)
	}
}

// liveGoroutines maps the ID of every live goroutine to its stack.
func liveGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		live[id] = g
	}
	return live
}

// TestExtractAheadGoroutines pins who runs where: Concurrency 1 starts no
// goroutine in Tick; otherwise the background extractions are gone once the
// last ProcessThumbnails has returned, and also when a pipeline is dropped
// with extractions outstanding.
func TestExtractAheadGoroutines(t *testing.T) {
	c, p := newHandCDN(t, 1)
	c.tick(t, p, 0) // the connection to the CDN and its goroutines on both ends
	c.tick(t, p, 1)
	base := runtime.NumGoroutine()
	// Goroutines are told apart by ID, not counted: net/http starts one per
	// request on each end (the client's timeout timer, the server's
	// background read) that exits a moment after the response is read, so
	// a count taken right after a tick can be one high or one low.
	before := liveGoroutines()
	c.tick(t, p, 2)
	for id, g := range liveGoroutines() {
		if _, ok := before[id]; !ok && !strings.Contains(g, "\ncreated by net/http.") {
			t.Fatalf("Concurrency 1: a tick that stored a thumbnail left a goroutine running:\n%s", g)
		}
	}
	if len(p.ahead) != 0 || p.Objects.Size(download.ThumbBucket) != 3 {
		t.Fatalf("Concurrency 1: %d extractions started, %d thumbnails stored; want 0, 3", len(p.ahead), p.Objects.Size(download.ThumbBucket))
	}

	p.Concurrency = 8
	for seq := int64(3); seq < 40; seq++ {
		c.tick(t, p, seq)
	}
	obs.Reset()
	if n := p.ProcessThumbnails(); n != 40 {
		t.Fatalf("drained %d thumbnails, want 40", n)
	}
	// /metrics says where the refresh found its extractions: the three
	// stored at Concurrency 1 inline, the rest done or (timed) in flight.
	ready, waited, inline := mAheadReady.Value(), mAheadWaited.Value(), mAheadInline.Value()
	if inline != 3 || ready+waited != 37 || hExtractWait.Count() != waited {
		t.Fatalf("pipeline_extract_ahead_total: ready %d, waited %d, inline %d, %d waits timed; want 37 ready or waited, 3 inline, every wait timed",
			ready, waited, inline, hExtractWait.Count())
	}
	settle(t, base, "after the last ProcessThumbnails")

	for seq := int64(40); seq < 80; seq++ {
		c.tick(t, p, seq)
	}
	// Dropped mid-pass: nobody takes these results.
	settle(t, base, "after dropping a pipeline with extractions outstanding")
}

// poisonStore panics on Get of the keys it is told to.
type poisonStore struct {
	objstore.API
	poison map[string]bool
}

func (s poisonStore) Get(bucket, key string) (*objstore.Object, error) {
	if s.poison[key] {
		panic("poisoned " + key)
	}
	return s.API.Get(bucket, key)
}

// panicAhead is TestStagePanicRecovery's background case: of six
// thumbnails stored tick by tick, the extractions of two panic in their
// background goroutines. ProcessThumbnails re-raises the one with the lower
// index, naming stage and key, and merges nothing; once the two are out of
// the bucket, the four healthy results are still there to be ingested.
func panicAhead(t *testing.T) {
	c, p := newHandCDN(t, 8)
	p.Objects = poisonStore{API: p.Objects, poison: map[string]bool{c.key(2): true, c.key(4): true}}
	for seq := int64(0); seq < 6; seq++ {
		c.tick(t, p, seq)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"stage extract", "item 2", c.key(2), "poisoned"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("ProcessThumbnails over two panicked extractions: recovered %q, want it to name %q", msg, want)
				}
			}
		}()
		p.ProcessThumbnails()
	}()
	if p.Processed != 0 || p.Objects.Size(download.ThumbBucket) != 6 {
		t.Fatalf("the panicking drain merged: processed %d, %d thumbnails left", p.Processed, p.Objects.Size(download.ThumbBucket))
	}
	p.Objects.Delete(download.ThumbBucket, c.key(2))
	p.Objects.Delete(download.ThumbBucket, c.key(4))
	if n := p.ProcessThumbnails(); n != 4 || p.Processed != 4 {
		t.Fatalf("drained %d, processed %d after the poisoned keys were removed; want 4, 4", n, p.Processed)
	}
	if p.Concurrency != 8 {
		t.Fatalf("Concurrency = %d after a panicking drain, want 8", p.Concurrency)
	}
}
