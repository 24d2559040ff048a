package experiments

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"tero/internal/core"
	"tero/internal/kvstore"
	"tero/internal/par"
	"tero/internal/pipeline"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func init() {
	register("volume", "basic data properties from a full pipeline run (§5.1)", runVolume)
}

// runVolume drives the complete system — platform HTTP API + CDN, download
// module, image processing, location module, data analysis — and reports
// §5.1-style volume and coverage numbers.
func runVolume(o Options) ([]*Table, error) {
	return runVolumeWith(o, nil, nil)
}

// volumeTickCount returns the number of 2-minute ticks a volume run at
// these options drives, so other experiments (chaos-store) can schedule
// events at fixed fractions of the run.
func volumeTickCount(o Options) int {
	return o.scaled(2) * 24 * 30
}

// runVolumeWith is the volume run with two arguments for chaos-store: kv
// replaces the pipeline's private in-memory store (a RemoteStore over TCP, a
// durable store), and onTick is Drive's hook, which runs after each tick —
// the crash/restart. Either may be nil.
func runVolumeWith(o Options, kv kvstore.KV, onTick func(i int) error) ([]*Table, error) {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(250)
	cfg.Days = o.scaled(2)
	cfg.LocatableFrac = 0.6
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	defer platform.Close()

	if kv == nil {
		kv = kvstore.New()
	}
	p := pipeline.NewWithKV(platform.URL(), 4, kv)
	p.Concurrency = par.Workers(o.Concurrency)
	if o.Faults > 0 {
		f := twitchsim.ScaledFaults(o.FaultSeed, o.Faults)
		// Stalls become short delays here: the experiment exercises the
		// recovery paths, not ten-second real-time client timeouts.
		f.Stall = 40 * time.Millisecond
		platform.SetFaults(f)
		// One connection per request: on a reused keep-alive connection,
		// net/http transparently replays an idempotent request killed by an
		// injected reset, and whether a connection gets reused is a timing
		// accident — the extra hidden request would shift the per-URI fault
		// ordinals and wobble the fault/retry counters across worker counts.
		noReuse := &http.Transport{DisableKeepAlives: true}
		// Keep the real-time retry pauses out of the experiment's budget.
		for _, d := range p.Downloaders {
			d.RetryWait = 2 * time.Millisecond
			d.HTTP.Transport = noReuse
		}
		p.API.RetryWait = 2 * time.Millisecond
		p.API.HTTP.Transport = noReuse
	}

	// Under fault injection a degraded tick is expected: the download module
	// has already retried, backed off or released, and the recovery surfaces
	// in the obs counters. Fault-free, any error is a bug.
	err := pipeline.Drive(platform, p, nil, volumeTickCount(o), pipeline.TickEvery, onTick)
	var degraded pipeline.Degraded
	if err != nil && (o.Faults <= 0 || !errors.As(err, &degraded)) {
		return nil, err
	}

	t := coverageTable(p, "Volume and coverage (§5.1) — full pipeline over HTTP", false)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"scaled world: %d streamers over %d days (the paper: 26M streamers, 2 years)",
		cfg.Streamers, cfg.Days))
	return []*Table{t}, nil
}

// coverageTable renders a finished run's §5.1 volume and coverage metrics;
// quarantined adds the count of corrupt thumbnails moved aside.
func coverageTable(p *pipeline.Pipeline, title string, quarantined bool) *Table {
	analyses := p.Analyze(core.DefaultParams())
	streams := p.BuildStreams()
	kept, keptPoints := 0, 0
	streamerSet := map[string]bool{}
	countrySet := map[string]bool{}
	for _, a := range analyses {
		if a.Discarded {
			continue
		}
		kept++
		keptPoints += a.KeptPoints
		streamerSet[a.Streamer] = true
		if c := a.Location().Country; c != "" {
			countrySet[c] = true
		}
	}
	t := &Table{Title: title, Header: []string{"metric", "value"}}
	t.AddRow("thumbnails processed", itoa(p.Processed))
	t.AddRow("latency measurements extracted", itoa(p.Extracted))
	t.AddRow("lobby zeros discarded", itoa(p.Zero))
	t.AddRow("extraction misses", itoa(p.Missed))
	if quarantined {
		t.AddRow("thumbnails quarantined", itoa(p.Quarantined))
	}
	t.AddRow("streams", itoa(len(streams)))
	t.AddRow("{streamer, game} tuples analyzed", itoa(len(analyses)))
	t.AddRow("tuples kept after analysis", itoa(kept))
	t.AddRow("measurements retained", itoa(keptPoints))
	t.AddRow("distinct streamers with data", itoa(len(streamerSet)))
	t.AddRow("streamers located", itoa(p.Located))
	t.AddRow("countries covered", itoa(len(countrySet)))
	return t
}
