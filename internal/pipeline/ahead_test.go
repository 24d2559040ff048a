package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/download"
	"tero/internal/imaging"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// driveLoop runs the production loop — two-minute ticks, a refresh (drain,
// locate, publish, build) every 15 — against twitchsim and renders all it
// stored, queued and would serve into one string. The downloaders claim with
// ClaimAll and the API quota is lifted, so which tick a streamer is adopted
// on, and with it every document, does not depend on goroutine scheduling.
func driveLoop(t *testing.T, concurrency int) string {
	t.Helper()
	cfg := worldsim.DefaultConfig(5)
	cfg.Streamers = 60
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	platform := twitchsim.New(worldsim.New(cfg))
	platform.SetAPIRate(1e9, 1e9)
	defer platform.Close()

	p := New(platform.URL(), 4)
	p.Concurrency = concurrency
	for _, d := range p.Downloaders {
		d.Claim = download.ClaimAll
	}
	params := core.DefaultParams()
	b := serve.NewBuilder(params)
	var sb strings.Builder
	refresh := func() {
		n := p.ProcessThumbnails()
		pending := p.KV.HGetAll("pending-location")
		ids := make([]string, 0, len(pending))
		for id := range pending {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&sb, "drained %d pending", n)
		for _, id := range ids {
			fmt.Fprintf(&sb, " %s=%s", id, pending[id])
		}
		p.LocateStreamers(platform.Now())
		p.PublishAt(b, params, platform.Now())
		h := sha256.New()
		for _, e := range b.Build().Entries {
			h.Write(e.BodyJSON())
		}
		fmt.Fprintf(&sb, "\nbodies %s\n", hex.EncodeToString(h.Sum(nil)))
	}
	platform.Advance(22 * time.Hour)
	const ticks = 100 // not a multiple of 15: the last refresh takes in a partial round
	for i := 0; i < ticks; i++ {
		if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
			t.Fatalf("concurrency %d, tick %d: %v", concurrency, i, err)
		}
		if i > 0 && i%15 == 0 {
			refresh()
		}
		platform.Advance(2 * time.Minute)
	}
	refresh()
	if p.Extracted == 0 || p.Located == 0 {
		t.Fatalf("concurrency %d: the loop measured %d readings and located %d streamers", concurrency, p.Extracted, p.Located)
	}
	if n := p.Objects.Size(download.ThumbBucket); n != 0 || len(p.ahead) != 0 {
		t.Fatalf("concurrency %d: the last refresh left %d thumbnails and %d extractions behind", concurrency, n, len(p.ahead))
	}
	return sb.String() + snapshot(p)
}

// TestExtractAheadDeterminism holds the loop with extraction riding the
// download (Concurrency 2 and 8) to the serial one: counters, measurement
// documents with their IDs, pending-location entries before every location
// round and the bodies every publish would serve.
func TestExtractAheadDeterminism(t *testing.T) {
	serial := driveLoop(t, 1)
	for _, c := range []int{2, 8} {
		if got := driveLoop(t, c); got != serial {
			a, b := diffLine(serial, got)
			t.Fatalf("Concurrency 1 and %d diverge:\n serial: %s\n ahead:  %s", c, a, b)
		}
	}
}

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
	if stored == first.r.res.At {
		t.Fatalf("both stores of the key carry at=%s: the test stores nothing different", stored)
	}
	if n := p.ProcessThumbnails(); n != 2 {
		t.Fatalf("drained %d thumbnails, want 2", n)
	}
	docs := p.Docs.C("measurements").Find(nil)
	if len(docs) != 2 {
		t.Fatalf("%d measurements, want 2 (the rendered thumbnail must be legible)", len(docs))
	}
	if got := docs[0]["at"]; got != stored { // documents are in key order: …/5.pgm first
		t.Fatalf("measurement of the re-stored key has at=%v, the bucket held at=%s", got, stored)
	}
}

// TestCorruptThumbnailAheadQuarantinedOnce stores an undecodable body
// mid-run: its background extraction judges it corrupt, and the merge — not
// the background — quarantines it, once.
func TestCorruptThumbnailAheadQuarantinedOnce(t *testing.T) {
	c, p := newHandCDN(t, 2)
	c.tick(t, p, 0)
	cut := c.good[:len(c.good)/2]
	c.body.Store(&cut)
	c.tick(t, p, 1)
	if n := p.Objects.Size(QuarantineBucket); n != 0 {
		t.Fatalf("%d objects quarantined before the merge", n)
	}
	c.body.Store(&c.good)
	c.tick(t, p, 2)
	for round := 0; round < 2; round++ { // a second drain finds nothing to do again
		p.ProcessThumbnails()
		if p.Quarantined != 1 || p.Processed != 2 || p.Objects.Size(QuarantineBucket) != 1 ||
			p.Objects.Size(download.ThumbBucket) != 0 {
			t.Fatalf("drain %d: quarantined %d (bucket %d), processed %d, %d thumbnails left; want 1 (1), 2, 0", round,
				p.Quarantined, p.Objects.Size(QuarantineBucket), p.Processed, p.Objects.Size(download.ThumbBucket))
		}
	}
	if _, err := p.Objects.Get(QuarantineBucket, c.key(1)); err != nil {
		t.Fatalf("the corrupt thumbnail is not in quarantine: %v", err)
	}
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
	c.tick(t, p, 2)
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("Concurrency 1: %d goroutines after a tick that stored a thumbnail, %d before", n, base)
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

// panicAhead is TestForEachPanicRecovery's background case: of six
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
