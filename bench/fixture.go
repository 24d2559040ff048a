package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tero/internal/download"
	"tero/internal/imaging"
	"tero/internal/objstore"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// The seed world the ingest workloads replay is one virtual day of as many
// streamers as it takes to put worldThumbs thumbnails on the CDN: how much a
// streamer broadcasts varies a lot from seed to seed, and a pass's cost
// follows the thumbnail count, so the world is sized by what it emits, not
// by head count. A pass then takes on the order of a second on two cores.
const (
	worldThumbs  = 1800
	maxStreamers = 600
)

func worldConfig(seed int64, streamers int) worldsim.Config {
	cfg := worldsim.DefaultConfig(seed)
	cfg.Streamers = streamers
	cfg.Days = 1
	cfg.LocatableFrac = 0.6
	return cfg
}

// sizedWorld generates the seed's world and keeps the leading streamers
// whose sessions emit worldThumbs thumbnails within the day. Streamers are
// generated one after another from one random stream, so the kept prefix is
// exactly the world a smaller head count would have produced.
func sizedWorld(seed int64) (*worldsim.World, error) {
	world := worldsim.New(worldConfig(seed, maxStreamers))
	end := world.Cfg.Start.Add(totalTicks * tickEvery)
	thumbs := 0
	for k, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for _, t := range gs.Times {
				if !t.Before(world.Cfg.Start) && t.Before(end) {
					thumbs++
				}
			}
		}
		if thumbs >= worldThumbs {
			world.Streamers = world.Streamers[:k+1]
			return world, nil
		}
	}
	return nil, fmt.Errorf("seed %d: %d streamers emit only %d thumbnails a day, want %d", seed, maxStreamers, thumbs, worldThumbs)
}

// thumb is one thumbnail object the reference pass stored.
type thumb struct {
	key  string
	data []byte
	meta map[string]string
}

// fixture is everything recorded from one reference pass: the platform's
// responses, the thumbnails that reached the object store, and what the
// pipeline made of them.
type fixture struct {
	world  *worldsim.World
	base   string // the platform URL the recorded thumbnail_urls point at
	tape   *tape
	corpus []thumb
	ref    outcome

	tapeCount int   // responses recorded
	tapeBytes int64 // their bodies
}

// corpusStore captures every thumbnail put on its way into the real store.
type corpusStore struct {
	objstore.API
	corpus []thumb
	seen   map[string]int
}

func (c *corpusStore) Put(bucket, key string, data []byte, meta map[string]string) string {
	if bucket == download.ThumbBucket {
		// A streamer's second session restarts its sequence numbers; the
		// batch workload puts the whole corpus in one bucket, so keys must
		// not collide there.
		k := key
		if n := c.seen[key]; n > 0 {
			k = key + "#" + strconv.Itoa(n)
		}
		c.seen[key]++
		m := make(map[string]string, len(meta))
		for name, v := range meta {
			m[name] = v
		}
		c.corpus = append(c.corpus, thumb{key: k, data: data, meta: m})
	}
	return c.API.Put(bucket, key, data, meta)
}

// record serves the world with twitchsim and drives one serial reference
// pass of the production loop against it, with a recording RoundTripper on
// every platform client. The platform is closed before record returns: from
// here on the tape is the platform.
func record(world *worldsim.World) (*fixture, error) {
	platform := twitchsim.New(world)
	defer platform.Close()
	// The API quota is enforced in real time; lift it so no 429 (and no
	// retry sleep) ever lands on the tape.
	platform.SetAPIRate(1e9, 1e9)

	fr, err := startFront()
	if err != nil {
		return nil, err
	}
	defer fr.close()

	fx := &fixture{world: world, base: platform.URL(), tape: newTape()}
	base := &http.Transport{MaxIdleConnsPerHost: 8}
	defer base.CloseIdleConnections()
	p := newPipeline(fx.base, &recorder{base: base, tape: fx.tape}, 1)
	cs := &corpusStore{API: p.Objects, seen: make(map[string]int)}
	p.Objects = cs
	for _, d := range p.Downloaders {
		d.Store = cs
	}

	run := &loopRun{
		p: p, builder: serve.NewBuilder(coreParams), front: fr,
		start: world.Cfg.Start, advance: platform.Advance,
	}
	run.builder.Concurrency = 1
	run.run()
	if len(run.failures) > 0 {
		return nil, fmt.Errorf("reference pass failed: %v", run.failures)
	}
	fx.corpus = cs.corpus
	fx.tapeCount, fx.tapeBytes = fx.tape.count, fx.tape.bytes
	fx.ref = run.outcome()
	if fx.ref.Processed == 0 || fx.ref.Extracted == 0 || fx.ref.Entries == 0 {
		return nil, fmt.Errorf("reference pass produced nothing to serve: %s", fx.ref)
	}
	if fx.ref.Processed != len(fx.corpus) {
		return nil, fmt.Errorf("reference pass processed %d thumbnails but stored %d", fx.ref.Processed, len(fx.corpus))
	}
	return fx, nil
}

// truthOf re-renders the thumbnail a corpus entry holds and returns what it
// really shows. Sessions are regenerated from the world (they are a pure
// function of it), and the entry's fetch time picks the session, exactly as
// the platform did when it served the request.
func (fx *fixture) truthOf(sessions map[string][]*worldsim.GenStream, t thumb) (worldsim.RenderTruth, bool) {
	id := t.meta["streamer"]
	st := fx.world.ByID(id)
	if st == nil {
		return worldsim.RenderTruth{}, false
	}
	ss, ok := sessions[id]
	if !ok {
		ss = fx.world.Sessions(st)
		sessions[id] = ss
	}
	at, err := time.Parse(time.RFC3339, t.meta["at"])
	if err != nil {
		return worldsim.RenderTruth{}, false
	}
	idx, err := strconv.Atoi(t.meta["seq"])
	if err != nil {
		return worldsim.RenderTruth{}, false
	}
	for _, gs := range ss {
		n := len(gs.Times)
		if n == 0 || idx >= n || at.Before(gs.Times[0]) || at.After(gs.Times[n-1].Add(5*time.Minute)) {
			continue
		}
		img, truth := worldsim.RenderDeterministic(gs, idx, worldsim.DefaultRenderOptions())
		imaging.Recycle(img)
		return truth, true
	}
	return worldsim.RenderTruth{}, false
}
