package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// driveWorld runs platform + pipeline end to end with the given number of
// downloaders at the given concurrency. The platform API quota is raised so
// wall-clock 429 retries cannot make runs diverge in anything but speed.
func driveWorld(t *testing.T, seed int64, streamers int, hours float64, downloaders, concurrency int) *Pipeline {
	t.Helper()
	cfg := worldsim.DefaultConfig(seed)
	cfg.Streamers = streamers
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	platform.SetAPIRate(5000, 5000)
	t.Cleanup(platform.Close)

	p := New(platform.URL(), downloaders)
	p.Concurrency = concurrency
	platform.Advance(23 * time.Hour)
	ticks := int(hours * 30) // 2-minute ticks
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
		fmt.Fprintf(&sb, "stream %s %s %q %d %s %s %.6f\n",
			s.Streamer, s.Game, encodeLocation(s.Location), len(s.Points),
			s.Points[0].T.Format(time.RFC3339),
			s.Points[len(s.Points)-1].T.Format(time.RFC3339), sum)
	}
	for _, a := range p.Analyze(core.DefaultParams()) {
		fmt.Fprintf(&sb, "analysis %+v\n", *a)
	}
	return sb.String()
}

// TestConcurrencyDeterminism pins the tentpole guarantee: the pipeline's
// stored documents, counters, streams and analyses are byte-identical
// whether one downloader runs every stage serially or four downloaders run
// them on 8 workers — adoption is dealt, and thumbnails carry their window's
// time, so neither the scheduler nor the fleet's shape shows in the data.
func TestConcurrencyDeterminism(t *testing.T) {
	serial := snapshot(driveWorld(t, 77, 60, 2, 1, 1))
	parallel := snapshot(driveWorld(t, 77, 60, 2, 4, 8))
	if serial != parallel {
		a, b := diffLine(serial, parallel)
		t.Fatalf("1 serial downloader and 4 on 8 workers diverge:\n serial:   %s\n parallel: %s", a, b)
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
	p := driveWorld(t, 91, 80, 1.5, 4, 16)
	if p.Processed == 0 || p.Extracted == 0 {
		t.Fatalf("stress run extracted nothing: %+v", *p)
	}
	if got := p.Analyze(core.DefaultParams()); len(got) == 0 {
		t.Fatal("no analyses")
	}
	// The pool must degrade cleanly at the edges too.
	forEach("edge", 1, 0, func(int) { t.Fatal("forEach(0) must not call fn") })
	calls := 0
	forEach("edge", 1, 3, func(int) { calls++ })
	if calls != 3 {
		t.Fatalf("serial forEach calls = %d", calls)
	}
}
