// Quickstart: the smallest end-to-end use of the public pipeline — spin up
// a simulated platform, run the full Tero system for a few virtual hours,
// and print what it extracted.
package main

import (
	"fmt"
	"log"
	"time"

	"tero/internal/core"
	"tero/internal/pipeline"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func main() {
	// 1. A synthetic world: 80 streamers with ground-truth locations,
	//    latency processes and social profiles.
	cfg := worldsim.DefaultConfig(42)
	cfg.Streamers = 80
	cfg.Days = 1
	cfg.LocatableFrac = 0.7
	world := worldsim.New(cfg)

	// 2. The platform: a real HTTP server with the Twitch-like API, the
	//    thumbnail CDN and social endpoints.
	platform := twitchsim.New(world)
	defer platform.Close()
	fmt.Println("platform:", platform.URL())

	// 3. The Tero pipeline wired against it.
	p := pipeline.New(platform.URL(), 2)

	// 4. Drive six virtual hours of the evening on App. A's schedule:
	//    2-minute ticks, thumbnails drained as they land, then location.
	platform.Advance(22 * time.Hour)
	if err := pipeline.Drive(platform, p, nil, 6*30, pipeline.TickEvery, nil); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("thumbnails: %d, measurements: %d, missed: %d\n",
		p.Processed, p.Extracted, p.Missed)
	fmt.Printf("streamers located: %d\n", p.Located)

	// 5. Run the data-analysis module and show a few streams.
	analyses := p.Analyze(core.DefaultParams())
	shown := 0
	for _, a := range analyses {
		if a.Discarded || shown >= 5 {
			continue
		}
		shown++
		fmt.Printf("streamer %s playing %s from %q: %d points kept, %d spikes, %d clusters, static=%v\n",
			a.Streamer[:12], a.Game, a.Location().String(),
			a.KeptPoints, len(a.Spikes), len(a.Clusters), a.Static)
	}
}
