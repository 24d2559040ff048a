package serve_test

// End-to-end acceptance tests: the served distributions must be
// byte-identical to what the offline analysis derives for the same
// synthetic world, and the service must survive concurrent load with a
// snapshot swap mid-run without a single failed or torn response.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/obs"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/stats"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// runPipeline drives the production pipeline (four downloaders) over
// platform for `hours` of virtual time. Adoption is a serial deal, so what
// is ingested does not depend on scheduling. The platform is returned for
// its virtual clock, which PublishAt requires.
func runPipeline(t testing.TB, streamers int, hours float64) (*pipeline.Pipeline, *twitchsim.Platform) {
	t.Helper()
	cfg := worldsim.DefaultConfig(23)
	cfg.Streamers = streamers
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)

	p := pipeline.New(platform.URL(), 4)
	platform.Advance(23 * time.Hour)
	if err := pipeline.Drive(platform, p, nil, int(hours*30), pipeline.TickEvery, nil); err != nil {
		t.Fatal(err)
	}
	return p, platform
}

// servedDigest is the SHA-256 over the JSON body and ETag of every entry
// TestServeMatchesOfflineAnalysis builds (seed 23, 120 streamers, 6 h). The
// value comes from dealing plus window stamps and reproduces at 1 and at 4
// downloaders. It is the value the single draining downloader produced
// before adoption was dealt: that downloader adopted on the same ticks, and
// a window stamp moves no served byte here.
const servedDigest = "eb3735834534c13ac506eec2e7693217e6098c3d75d3afc2503820fced842265"

func TestServeMatchesOfflineAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full pipeline")
	}
	p, platform := runPipeline(t, 120, 6)
	params := core.DefaultParams()

	builder := serve.NewBuilder(params)
	if n := p.PublishAt(builder, params, platform.Now()); n == 0 {
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

	// The served bytes themselves, pinned: every entry's JSON body and ETag
	// for this seed. A change that means to keep the served answers must
	// leave this digest alone.
	h := sha256.New()
	for _, e := range snap.Entries {
		h.Write(e.BodyJSON())
		h.Write([]byte(e.ETag()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != servedDigest {
		t.Errorf("served-bytes digest %s, want %s", got, servedDigest)
	}
}

// TestLoadWithSwap is the serving acceptance run at test scale: 32
// concurrent clients hammer the API over TCP while the index is re-published
// mid-run. Every request is answered 200 or 304: zero 4xx, 5xx or transport
// errors.
func TestLoadWithSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full pipeline and a load test")
	}
	prev := obs.SetLogLevel(obs.LevelWarn) // the swap loop logs per swap
	defer obs.SetLogLevel(prev)
	p, platform := runPipeline(t, 120, 6)
	params := core.DefaultParams()
	builder := serve.NewBuilder(params)
	p.PublishAt(builder, params, platform.Now())
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
				p.PublishAt(b, params, platform.Now())
				v := ix.Version()
				ix.Swap(b.Build())
				n += int(ix.Version() - v)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	// 32 clients × 50 requests round-robin over the listed pairs; every 4th
	// request replays the pair's last ETag as If-None-Match.
	pairs := listedPairs(t, ts)
	const clients, perClient = 32, 50
	var ok, notModified, clientErrs, serverErrs, transportErrs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etags := make([]string, len(pairs))
			for i := 0; i < perClient; i++ {
				pi := (c + i) % len(pairs)
				req, err := http.NewRequest(http.MethodGet, pairs[pi], nil)
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 3 && etags[pi] != "" {
					req.Header.Set("If-None-Match", etags[pi])
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					transportErrs.Add(1)
					continue
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					transportErrs.Add(1)
				case resp.StatusCode == http.StatusOK:
					ok.Add(1)
					etags[pi] = resp.Header.Get("ETag")
				case resp.StatusCode == http.StatusNotModified:
					notModified.Add(1)
				case resp.StatusCode >= 500:
					serverErrs.Add(1)
				case resp.StatusCode >= 400:
					clientErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swaps := <-swapDone
	if n := serverErrs.Load(); n != 0 {
		t.Fatalf("%d server errors under load", n)
	}
	if n := transportErrs.Load(); n != 0 {
		t.Fatalf("%d transport errors under load", n)
	}
	if n := clientErrs.Load(); n != 0 {
		t.Fatalf("%d client errors under load (the clients query only listed pairs)", n)
	}
	if ok.Load() == 0 || ok.Load()+notModified.Load() != clients*perClient {
		t.Fatalf("unexpected volume: %d ok + %d not modified, want %d answers",
			ok.Load(), notModified.Load(), clients*perClient)
	}
	if swaps == 0 {
		t.Fatal("no swap happened during the load run")
	}
	t.Logf("load with %d mid-run swaps: %d ok, %d not modified", swaps, ok.Load(), notModified.Load())
}

// listedPairs returns the /v1/latency URL of every {location, game} pair
// the server's /v1/locations lists.
func listedPairs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/locations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Locations []serve.LocationSummary `json:"locations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, l := range listing.Locations {
		for _, g := range l.Games {
			v := url.Values{"location": {l.Location.Key}, "game": {g}}
			urls = append(urls, ts.URL+"/v1/latency?"+v.Encode())
		}
	}
	if len(urls) == 0 {
		t.Fatal("the server lists no {location, game} pairs")
	}
	return urls
}
