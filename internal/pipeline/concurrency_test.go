package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/par"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// driveWorld drives platform + pipeline for ticks ticks from 23:00 and holds
// the run to Drive's contract; refresh, if not nil, runs after every drain
// and after the run.
func driveWorld(t *testing.T, seed int64, streamers, ticks, downloaders, concurrency int, refresh func(p *Pipeline, now time.Time)) (*worldsim.World, *Pipeline) {
	t.Helper()
	cfg := worldsim.DefaultConfig(seed)
	cfg.Streamers = streamers
	cfg.Days = 1
	cfg.LocatableFrac = 0.8 // dense locations so assertions have data
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)

	p := New(platform.URL(), downloaders)
	p.Concurrency = concurrency
	platform.Advance(23 * time.Hour)
	check := drainCheck(t, p)
	err := Drive(platform, p, nil, ticks, TickEvery, func(i int) error {
		if refresh != nil && i%DrainEvery == 0 {
			refresh(p, platform.Now())
		}
		return check(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDrained(t, p)
	if refresh != nil {
		refresh(p, platform.Now())
	}
	return world, p
}

// driveLoop runs the production loop, a refresh (locate, publish, build)
// after every drain, and renders all it stored, queued and would serve.
func driveLoop(t *testing.T, downloaders, concurrency int) string {
	t.Helper()
	params := core.DefaultParams()
	b := serve.NewBuilder(params)
	var sb strings.Builder
	// 100 ticks, not a multiple of DrainEvery: the last drain takes in a
	// partial round.
	_, p := driveWorld(t, 5, 60, 100, downloaders, concurrency, func(p *Pipeline, now time.Time) {
		// fmt prints a map in key order.
		fmt.Fprintf(&sb, "processed %d pending %v\n", p.Processed, p.pending)
		p.LocateStreamers(now)
		p.PublishAt(b, params, now)
		for _, e := range b.Build().Entries {
			fmt.Fprintf(&sb, "body %s\n", e.BodyJSON())
		}
	})
	if p.Extracted == 0 || p.Located == 0 {
		t.Fatalf("the loop measured %d readings and located %d streamers", p.Extracted, p.Located)
	}
	return sb.String() + snapshot(p)
}

// snapshot renders everything the pipeline stored or derived into one
// canonical string: stats, every stored measurement (in insertion order, so
// that order is pinned), built streams and full analyses.
func snapshot(p *Pipeline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stats %d %d %d %d %d %d\n",
		p.Processed, p.Extracted, p.Zero, p.Missed, p.Located, p.Unlocated)
	rows, _ := p.Docs.After(0)
	for _, m := range rows {
		fmt.Fprintf(&sb, "%+v\n", m)
	}
	for _, s := range p.BuildStreams() {
		sum := 0.0
		for _, pt := range s.Points {
			sum += pt.Ms
		}
		fmt.Fprintf(&sb, "stream %s %s %+v %d %s %s %.6f\n",
			s.Streamer, s.Game, s.Location, len(s.Points),
			s.Points[0].T.Format(time.RFC3339),
			s.Points[len(s.Points)-1].T.Format(time.RFC3339), sum)
	}
	for _, a := range p.Analyze(core.DefaultParams()) {
		fmt.Fprintf(&sb, "analysis %+v\n", *a)
	}
	return sb.String()
}

// TestConcurrencyDeterminism pins the tentpole guarantee: one downloader
// running every stage serially and four, serial or with extraction riding
// the download on 2 or 8 workers, store, queue, serve and derive the same
// bytes: adoption is dealt and thumbnails carry their window's time.
func TestConcurrencyDeterminism(t *testing.T) {
	serial := driveLoop(t, 1, 1)
	for _, c := range []int{1, 2, 8} {
		if got := driveLoop(t, 4, c); got != serial {
			a, b := diffLine(serial, got)
			t.Fatalf("1 serial downloader and 4 at Concurrency %d diverge:\n serial: %s\n four:   %s", c, a, b)
		}
	}
}

// diffLine returns the first differing line pair of two snapshots.
func diffLine(a, b string) (string, string) {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return la[i], lb[i]
		}
	}
	return fmt.Sprintf("<%d lines>", len(la)), fmt.Sprintf("<%d lines>", len(lb))
}

// TestConcurrentPipelineStress drives the full pipeline at high concurrency
// so the race detector can observe the worker pool, the shared stores and
// the OCR engines under real contention (run via `go test -race`).
func TestConcurrentPipelineStress(t *testing.T) {
	_, p := driveWorld(t, 91, 80, 45, 4, 16, nil)
	if p.Processed == 0 || p.Extracted == 0 {
		t.Fatalf("stress run extracted nothing: %+v", *p)
	}
	if got := p.Analyze(core.DefaultParams()); len(got) == 0 {
		t.Fatal("no analyses")
	}
	// The pool must degrade cleanly at the edges too.
	par.For("edge", 1, 0, func(int) { t.Fatal("par.For(0) must not call fn") })
	calls := 0
	par.For("edge", 1, 3, func(int) { calls++ })
	if calls != 3 {
		t.Fatalf("serial par.For calls = %d", calls)
	}
}
