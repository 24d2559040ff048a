package pipeline

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/geo"
	"tero/internal/obs"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// fromScratch is the oracle of TestIncrementalPublishMatchesFromScratch: the
// analyses of everything stored, derived without the pipeline's cache.
func fromScratch(p *Pipeline, params core.Params) []*core.Analysis {
	var out []*core.Analysis
	streams := p.BuildStreams()
	for len(streams) > 0 {
		n := 1
		for n < len(streams) && streams[n].Streamer == streams[0].Streamer && streams[n].Game == streams[0].Game {
			n++
		}
		out = append(out, core.Analyze(streams[:n], params))
		streams = streams[n:]
	}
	return out
}

// sameAnalyses compares two analysis lists field by field, streams and
// their locations included.
func sameAnalyses(got, want []*core.Analysis) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d analyses, want %d", len(got), len(want))
	}
	for i := range want {
		if g, w := fmt.Sprintf("%+v", *got[i]), fmt.Sprintf("%+v", *want[i]); g != w {
			return fmt.Errorf("analysis %d:\n got %.300s\nwant %.300s", i, g, w)
		}
	}
	return nil
}

// sameServed compares two snapshots through what a client can fetch: every
// entry's two bodies and two ETags, and the two listings.
func sameServed(got, want *serve.Snapshot) error {
	if len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i, g := range got.Entries {
		w := want.Entries[i]
		if g.Key != w.Key || !bytes.Equal(g.BodyJSON(), w.BodyJSON()) || !bytes.Equal(g.BodyBinary(), w.BodyBinary()) ||
			g.ETag() != w.ETag() || g.ETagBinary() != w.ETagBinary() {
			return fmt.Errorf("entry %d: %s (ETag %s), want %s (ETag %s)", i, g.Key, g.ETag(), w.Key, w.ETag())
		}
	}
	gi, wi := serve.NewIndex(0), serve.NewIndex(0)
	gi.Swap(got)
	wi.Swap(want)
	for _, path := range []string{"/v1/locations", "/v1/games"} {
		var bodies [2]*httptest.ResponseRecorder
		for k, ix := range []*serve.Index{gi, wi} {
			bodies[k] = httptest.NewRecorder()
			serve.NewServer(ix).ServeHTTP(bodies[k], httptest.NewRequest(http.MethodGet, path, nil))
		}
		if !bytes.Equal(bodies[0].Body.Bytes(), bodies[1].Body.Bytes()) ||
			bodies[0].Header().Get("ETag") != bodies[1].Header().Get("ETag") {
			return fmt.Errorf("%s differs:\n got %s\nwant %s", path, bodies[0].Body, bodies[1].Body)
		}
	}
	return nil
}

// TestIncrementalPublishMatchesFromScratch drives TestMoverLocationHistory's
// world (fewer streamers; half of them move mid-run) through the production
// loop, publishing into one builder twice per refresh — once the thumbnails
// are in, and again once their streamers are located, so that location
// histories change under pairs already analysed — and after each publish
// holds the cached analyses and the incrementally built snapshot to an oracle
// that shares nothing with the cache: BuildStreams, core.Analyze per pair, a
// fresh builder. It also pins what makes a publish cheap: a refresh
// re-analyses only some pairs, an immediate second publish none, new params
// all.
func TestIncrementalPublishMatchesFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full pipeline for four virtual days")
	}
	defer obs.SetLogLevel(obs.SetLogLevel(obs.LevelWarn)) // a swap is logged at info
	cfg := worldsim.DefaultConfig(31)
	cfg.Streamers = 60
	cfg.Days = 4
	cfg.LocatableFrac = 1.0
	cfg.MoverFrac = 0.5
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	platform.SetAPIRate(5000, 5000)
	t.Cleanup(platform.Close)

	p := New(platform.URL(), 1) // one downloader: which tick adopts a streamer does not depend on scheduling
	params := core.DefaultParams()
	b := serve.NewBuilder(params)
	ix := serve.NewIndex(0)

	var prev []*core.Analysis
	refreshes, partial, located := 0, 0, 0
	publish := func() {
		t.Helper()
		n := p.PublishAt(b, params, platform.Now())
		snap := b.Build()
		ix.Swap(snap)

		got, want := p.Analyze(params), fromScratch(p, params)
		if n != len(want) {
			t.Fatalf("publish %d: PublishAt returned %d analyses, from scratch %d", refreshes, n, len(want))
		}
		if err := sameAnalyses(got, want); err != nil {
			t.Fatalf("publish %d: cached analyses differ from scratch: %v", refreshes, err)
		}
		fresh := serve.NewBuilder(params)
		fresh.Add(want...)
		if err := sameServed(snap, fresh.Build()); err != nil {
			t.Fatalf("publish %d: incremental snapshot differs from scratch: %v", refreshes, err)
		}

		// What this refresh re-analysed, by pointer; pairs only ever appear,
		// so prev's pairs are a subsequence of got's.
		kept := 0
		for i, j := 0, 0; i < len(got) && j < len(prev); i++ {
			if got[i].Streamer != prev[j].Streamer || got[i].Game != prev[j].Game {
				continue
			}
			if got[i] == prev[j] {
				kept++
			} else if prev[j].Location().IsZero() && !got[i].Location().IsZero() {
				located++ // analysed before its streamer was located: joins a served group now
			}
			j++
		}
		if kept > 0 && kept < len(got) {
			partial++
		}

		// Nothing arrived: a second publish re-analyses and installs nothing.
		version := ix.Version()
		p.PublishAt(b, params, platform.Now())
		for i, a := range p.Analyze(params) {
			if a != got[i] {
				t.Fatalf("publish %d: a back-to-back publish re-analysed %s/%s", refreshes, a.Streamer, a.Game)
			}
		}
		if b.Build() != snap {
			t.Fatalf("publish %d: a back-to-back publish built a new snapshot", refreshes)
		}
		if ix.Swap(b.Build()); ix.Version() != version {
			t.Fatalf("publish %d: a back-to-back publish was swapped in", refreshes)
		}
		prev = got
		refreshes++
	}

	const refreshTicks = 8 * 30 // every 8 virtual hours
	for i := 0; i < cfg.Days*24*30; i++ {
		if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		platform.Advance(2 * time.Minute)
		if i%refreshTicks == refreshTicks-1 {
			p.ProcessThumbnails()
			publish()
			// As in TestMoverLocationHistory, every streamer is due for a
			// look: a mover is then seen at both addresses, not only at the
			// one held when a first thumbnail came in.
			for _, st := range world.Streamers {
				p.KV.HSet("pending-location", st.ID, st.Username)
			}
			p.LocateStreamers(platform.Now())
			publish()
		}
	}
	// A mover shows as a streamer whose streams carry more than one location.
	seen := map[string]geo.Location{}
	movers := 0
	for _, a := range prev {
		for _, s := range a.Streams {
			if at, ok := seen[a.Streamer]; ok && at != s.Location {
				movers++
			}
			seen[a.Streamer] = s.Location
		}
	}
	t.Logf("%d publishes (%d partial), %d pairs located after their first analysis, %d moves, %d analyses, %d entries",
		refreshes, partial, located, movers, len(prev), ix.Len())
	if refreshes < 12 || partial < 6 || located == 0 || movers == 0 {
		t.Fatal("the run does not exercise the cache: it needs refreshes that re-analyse some pairs and keep others, and location histories that change under analysed pairs")
	}

	// New params invalidate every cached analysis (and, on the builder,
	// every entry).
	params.LatGap = 25
	b.Params = params
	p.PublishAt(b, params, platform.Now())
	got, want := p.Analyze(params), fromScratch(p, params)
	for i, a := range got {
		if a == prev[i] {
			t.Fatalf("new params kept the analysis of %s/%s", a.Streamer, a.Game)
		}
	}
	if err := sameAnalyses(got, want); err != nil {
		t.Fatalf("new params: cached analyses differ from scratch: %v", err)
	}
	fresh := serve.NewBuilder(params)
	fresh.Add(want...)
	if err := sameServed(b.Build(), fresh.Build()); err != nil {
		t.Fatalf("new params: incremental snapshot differs from scratch: %v", err)
	}
}
