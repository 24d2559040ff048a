package serve_test

// End-to-end acceptance tests: the served distributions must be
// byte-identical to what the offline analysis derives for the same
// synthetic world, and the service must survive concurrent load with a
// snapshot swap mid-run without a single failed or torn response.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/download"
	"tero/internal/obs"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/stats"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// runPipeline drives platform + pipeline for `hours` of virtual time. The
// world is pinned so that what it ingests does not depend on scheduling: one
// downloader that adopts every queued streamer in the tick that queues it
// (three idle-one downloaders race for them), and an API quota high enough
// that the platform's real-time token bucket never decides which calls of a
// tick succeed.
func runPipeline(t testing.TB, streamers int, hours float64) *pipeline.Pipeline {
	t.Helper()
	cfg := worldsim.DefaultConfig(23)
	cfg.Streamers = streamers
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)
	platform.SetAPIRate(5000, 5000)

	p := pipeline.New(platform.URL(), 1)
	p.Downloaders[0].Claim = download.ClaimAll
	platform.Advance(23 * time.Hour)
	ticks := int(hours * 30)
	for i := 0; i < ticks; i++ {
		if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		platform.Advance(2 * time.Minute)
	}
	p.ProcessThumbnails()
	p.LocateStreamers(platform.Now())
	return p
}

// servedDigest is the SHA-256 over the bodies and ETags of every entry
// TestServeMatchesOfflineAnalysis builds (seed 23, 120 streamers, 6 h).
const servedDigest = "cb96b41976886b59bf72dcadd017a36c0c7dbf96f4921c5de1c7a8424b7ce21c"

func TestServeMatchesOfflineAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full pipeline")
	}
	p := runPipeline(t, 120, 6)
	params := core.DefaultParams()

	builder := serve.NewBuilder(params)
	if n := p.PublishAt(builder, params, time.Time{}); n == 0 {
		t.Fatal("pipeline published no analyses")
	}
	snap := builder.Build()
	if len(snap.Entries) == 0 {
		t.Fatal("no servable entries")
	}
	ix := serve.NewIndex(0)
	ix.Swap(snap)
	ts := httptest.NewServer(serve.NewServer(ix))
	t.Cleanup(ts.Close)

	// Offline ground truth, derived independently of the serving index:
	// the same grouping and distribution computation the analysis layer
	// performs, quantiled directly with the stats package.
	offline := make(map[string][]float64)
	for gk, as := range core.GroupByLocation(p.Analyze(params)) {
		if gk.Loc.IsZero() {
			continue
		}
		if dist := core.Distribution(as, params); len(dist) > 0 {
			// The service canonicalizes each sample in ascending order;
			// float summation is order-sensitive, so the offline
			// derivation must sum in the same canonical order to be
			// bit-identical.
			sort.Float64s(dist)
			offline[serve.EntryKey(gk.Loc, gk.Game)] = dist
		}
	}
	if len(offline) != len(snap.Entries) {
		t.Fatalf("offline derives %d groups, service has %d", len(offline), len(snap.Entries))
	}

	checked := 0
	for _, e := range snap.Entries {
		dist, ok := offline[e.Key]
		if !ok {
			t.Fatalf("served entry %s absent from offline derivation", e.Key)
		}
		v := url.Values{}
		v.Set("location", e.Location.Key())
		v.Set("game", e.Game)
		resp, err := http.Get(ts.URL + "/v1/latency?" + v.Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", e.Key, resp.StatusCode)
		}
		var got serve.LatencyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		if got.N != len(dist) {
			t.Fatalf("%s: served n=%d, offline %d", e.Key, got.N, len(dist))
		}
		// Exact float equality: the served quantiles must be the very
		// values the offline stats derivation produces.
		for _, q := range got.Quantiles {
			want, ok := stats.PercentileOK(dist, q.P)
			if !ok || q.Ms != want {
				t.Fatalf("%s p%v: served %v, offline %v", e.Key, q.P, q.Ms, want)
			}
		}
		mean, std := stats.MeanStd(dist)
		if got.MeanMs != mean || got.StdMs != std {
			t.Fatalf("%s: served mean/std %v/%v, offline %v/%v",
				e.Key, got.MeanMs, got.StdMs, mean, std)
		}
		h := stats.NewHistogram(serve.DefaultHistLoMs, serve.DefaultHistHiMs, serve.DefaultHistBins)
		h.AddAll(dist)
		for i, c := range got.Histogram.Counts {
			if c != h.Counts[i] {
				t.Fatalf("%s: histogram bin %d served %d, offline %d", e.Key, i, c, h.Counts[i])
			}
		}
		checked++
	}
	t.Logf("verified %d {location, game} entries against offline analysis", checked)

	// The served bytes themselves, pinned: every entry's JSON body, binary
	// body and both ETags for this seed. A change that means to keep the
	// served answers must leave this digest alone.
	h := sha256.New()
	for _, e := range snap.Entries {
		h.Write(e.BodyJSON())
		h.Write(e.BodyBinary())
		h.Write([]byte(e.ETag()))
		h.Write([]byte(e.ETagBinary()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != servedDigest {
		t.Errorf("served-bytes digest %s, want %s", got, servedDigest)
	}
}

// TestLoadWithSwap is the serving acceptance run at test scale: 32
// concurrent clients hammer the API while the index is re-published
// mid-run. Zero 5xx, zero transport errors, and the p99 is reported.
func TestLoadWithSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full pipeline and a load test")
	}
	prev := obs.SetLogLevel(obs.LevelWarn) // the swap loop logs per swap
	defer obs.SetLogLevel(prev)
	p := runPipeline(t, 120, 6)
	params := core.DefaultParams()
	builder := serve.NewBuilder(params)
	p.PublishAt(builder, params, time.Time{})
	snap := builder.Build()
	if len(snap.Entries) == 0 {
		t.Fatal("no servable entries")
	}
	ix := serve.NewIndex(0)
	ix.Swap(snap)
	ts := httptest.NewServer(serve.NewServer(ix))
	t.Cleanup(ts.Close)

	// Republish continuously while the load runs, alternating two builders:
	// PublishAt hands a builder it did not feed last time everything, so
	// every round is a from-scratch Build and a real Swap (the same builder
	// again would return the snapshot the index already holds).
	builders := [2]*serve.Builder{builder, serve.NewBuilder(params)}
	stop := make(chan struct{})
	swapDone := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				swapDone <- n
				return
			default:
				b := builders[(n+1)%2]
				p.PublishAt(b, params, time.Time{})
				v := ix.Version()
				ix.Swap(b.Build())
				n += int(ix.Version() - v)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	lg := &serve.LoadGen{BaseURL: ts.URL, Clients: 32, RequestsPerClient: 50}
	rep, err := lg.Run(context.Background())
	close(stop)
	swaps := <-swapDone
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerErrors != 0 {
		t.Fatalf("%d server errors under load", rep.ServerErrors)
	}
	if rep.TransportErrs != 0 {
		t.Fatalf("%d transport errors under load", rep.TransportErrs)
	}
	if rep.ClientErrors != 0 {
		t.Fatalf("%d client errors under load (loadgen queries only listed pairs)", rep.ClientErrors)
	}
	if rep.OK == 0 || rep.Requests != 32*50 {
		t.Fatalf("unexpected volume: %+v", rep)
	}
	if swaps == 0 {
		t.Fatal("no swap happened during the load run")
	}
	t.Logf("load with %d mid-run swaps: %s", swaps, rep.String())
}
