package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"time"

	"tero/internal/docstore"
	"tero/internal/download"
	"tero/internal/location"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
	"tero/internal/serve"
)

// The production loop of cmd/teroserve, on the benchmark's own clock: one
// virtual day in 2-minute ticks, the coordinator polled every third tick,
// and every refreshTicks ticks a refresh that takes whatever thumbnails have
// arrived all the way to an answer fetched over a socket.
const (
	tickEvery    = 2 * time.Minute
	totalTicks   = 24 * 30
	refreshTicks = 15
	downloaders  = 4 // the cmd/teroserve default
)

// outcome is what one pass of the loop produced: the pipeline's counters
// and a digest of everything it would serve. Two passes over the same
// inputs must agree on every field.
type outcome struct {
	Processed, Extracted, Zero, Missed, Located int
	Analyses                                    int
	Entries                                     int
	BodiesSHA                                   string // over the /v1/latency JSON bodies in key order
	DocsSHA                                     string // over the stored measurements, order-free
}

func (o outcome) String() string {
	return fmt.Sprintf("processed=%d extracted=%d zero=%d missed=%d located=%d analyses=%d entries=%d bodies=%.12s docs=%.12s",
		o.Processed, o.Extracted, o.Zero, o.Missed, o.Located, o.Analyses, o.Entries, o.BodiesSHA, o.DocsSHA)
}

// sameIngest compares what extract_batch can reproduce of a reference
// pass: it sees the same thumbnails but locates nobody and publishes nothing.
func (o outcome) sameIngest(ref outcome) bool {
	return o.Processed == ref.Processed && o.Extracted == ref.Extracted &&
		o.Zero == ref.Zero && o.Missed == ref.Missed &&
		o.Analyses == ref.Analyses && o.DocsSHA == ref.DocsSHA
}

// docsDigest hashes the measurement collection independent of insertion
// order and document IDs.
func docsDigest(docs *docstore.Store) string {
	all := docs.C("measurements").Find(nil)
	lines := make([]string, 0, len(all))
	for _, d := range all {
		lines = append(lines, fmt.Sprintf("%v|%v|%v|%v|%v", d["streamer"], d["game"], d["at"], d["ms"], d["alt"]))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l) //nolint:errcheck — hash writes cannot fail
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bodiesDigest(snap *serve.Snapshot) string {
	h := sha256.New()
	for _, e := range snap.Entries { // Build sorts entries by key
		h.Write(e.BodyJSON())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// front is the serving side a loop publishes into: one index behind one
// loopback server, shared by all passes of a workload (each pass swaps its
// own snapshots in).
type front struct {
	ix     *serve.Index
	srv    *http.Server
	base   string
	client *http.Client
}

func startFront() (*front, error) {
	ix := serve.NewIndex(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		ix:     ix,
		srv:    &http.Server{Handler: serve.NewServer(ix)},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 10 * time.Second},
	}
	go f.srv.Serve(ln) //nolint:errcheck — returns ErrServerClosed on close
	return f, nil
}

func (f *front) close() {
	f.client.CloseIdleConnections()
	f.srv.Close()
}

// confirm fetches the first catalog entry over the socket: a refresh is
// not done until a client can read the answer. Before anything is servable
// there is nothing to confirm.
func (f *front) confirm() error {
	cat := f.ix.Catalog()
	if cat == nil || len(cat.Locations) == 0 {
		return nil
	}
	l := cat.Locations[0]
	v := url.Values{}
	v.Set("location", l.Location.Key)
	v.Set("game", l.Games[0])
	resp, err := f.client.Get(f.base + "/v1/latency?" + v.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/latency for {%s, %s}: %s", l.Location.Key, l.Games[0], resp.Status)
	}
	return nil
}

// loopRun is one pass of the production loop and what it measured.
type loopRun struct {
	p       *pipeline.Pipeline
	builder *serve.Builder
	front   *front
	start   time.Time // virtual time of tick 0
	// advance moves the platform's clock with the loop's (reference pass
	// only; the replay CDN has no clock).
	advance func(time.Duration)
	tr      *tracer

	refreshMs []float64
	failures  []string
	snap      *serve.Snapshot
	analyses  int
}

func (r *loopRun) fail(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	} else if len(r.failures) == 8 {
		r.failures = append(r.failures, "...")
	}
}

// newPipeline wires a pipeline whose every platform client goes through rt.
// Downloaders adopt with ClaimAll: with the idle-one default, which tick a
// streamer is adopted on depends on how earlier streamers happened to be
// spread over the downloaders, and that is decided by goroutine scheduling.
// ClaimAll pins the tick, so the request sequence per URL — which is what
// the tape is keyed by — is the same at any concurrency.
func newPipeline(base string, rt http.RoundTripper, concurrency int) *pipeline.Pipeline {
	p := pipeline.New(base, downloaders)
	p.Concurrency = concurrency
	p.API.HTTP.Transport = rt
	for _, d := range p.Downloaders {
		d.HTTP.Transport = rt
		d.Claim = download.ClaimAll
	}
	if s, ok := p.Social.(*location.HTTPSocial); ok {
		s.HTTP.Transport = rt
	}
	return p
}

func (r *loopRun) run() {
	for i := 0; i < totalTicks; i++ {
		now := r.start.Add(time.Duration(i) * tickEvery)
		id := r.tr.start("download.tick")
		err := r.p.Tick(now, i%3 == 0)
		r.tr.end(id)
		if err != nil {
			r.fail("tick %d: %v", i, err)
		}
		if i > 0 && i%refreshTicks == 0 {
			r.refresh(now)
		}
		if r.advance != nil {
			r.advance(tickEvery)
		}
	}
	r.refresh(r.start.Add(totalTicks * tickEvery))
}

func (r *loopRun) refresh(now time.Time) {
	t0 := time.Now()
	if r.tr == nil {
		r.p.ProcessThumbnails()
	} else {
		r.processSplit()
	}
	id := r.tr.start("location.locate")
	r.p.LocateStreamers(now)
	r.tr.end(id)
	id = r.tr.start("pipeline.publish")
	r.analyses = r.p.PublishAt(r.builder, coreParams, now)
	r.tr.end(id)
	id = r.tr.start("serve.build")
	r.snap = r.builder.Build()
	r.tr.end(id)
	id = r.tr.start("serve.swap")
	r.front.ix.Swap(r.snap)
	r.tr.end(id)
	id = r.tr.start("nethttp.confirm")
	err := r.front.confirm()
	r.tr.end(id)
	if err != nil {
		r.fail("refresh at %s: %v", now.Format(time.RFC3339), err)
	}
	r.refreshMs = append(r.refreshMs, float64(time.Since(t0).Nanoseconds())/1e6)
}

// processSplit is ProcessThumbnails by way of the ExtractThumb/IngestResult
// split that internal/dist drives, so a traced pass can time extraction and
// the merge apart. Same key order, same side effects; the outcome check
// holds it to the same counters and documents.
func (r *loopRun) processSplit() {
	id := r.tr.start("pipeline.process")
	defer r.tr.end(id)
	p := r.p
	for _, key := range p.Objects.List(download.ThumbBucket, "") {
		obj, err := p.Objects.Get(download.ThumbBucket, key)
		if err != nil {
			continue
		}
		x := r.tr.start("imageproc.extract")
		res := pipeline.ExtractThumb(p.Extractor, obj)
		r.tr.end(x)
		if res.Outcome == pipeline.OutcomeCorrupt {
			r.fail("thumbnail %s does not decode", key)
		}
		x = r.tr.start("pipeline.ingest")
		p.IngestResult(res, trace.Context{})
		r.tr.end(x)
		p.Objects.Delete(download.ThumbBucket, key) //nolint:errcheck — the key was just listed
	}
}

func (r *loopRun) outcome() outcome {
	o := outcome{
		Processed: r.p.Processed, Extracted: r.p.Extracted, Zero: r.p.Zero,
		Missed: r.p.Missed, Located: r.p.Located,
		Analyses: r.analyses,
		DocsSHA:  docsDigest(r.p.Docs),
	}
	if r.snap != nil {
		o.Entries = len(r.snap.Entries)
		o.BodiesSHA = bodiesDigest(r.snap)
	}
	return o
}
