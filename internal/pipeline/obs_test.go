package pipeline

import (
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/obs"
)

// TestStageCountersMatchPipeline pins the observability wiring: after a
// full run, the obs registry's stage counters equal the pipeline's own
// struct counters, and every pipeline stage span was recorded.
func TestStageCountersMatchPipeline(t *testing.T) {
	obs.Reset()
	_, p := driveWorld(t, 31, 40, 45, 4, 4, nil)
	p.Analyze(core.DefaultParams())

	if p.Processed == 0 || p.Extracted == 0 {
		t.Fatalf("run produced no data: %+v", *p)
	}
	snap := obs.Default.Snapshot()
	for name, want := range map[string]int{
		"pipeline_thumbs_processed_total": p.Processed,
		"pipeline_measurements_total":     p.Extracted,
		"pipeline_lobby_zero_total":       p.Zero,
		"pipeline_extract_miss_total":     p.Missed,
		"pipeline_located_total":          p.Located,
		"pipeline_unlocated_total":        p.Unlocated,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, want %d (struct counter)", name, got, want)
		}
	}
	for _, stage := range []string{
		"pipeline.download", "pipeline.extract", "pipeline.locate",
		"pipeline.build_streams", "pipeline.analyze",
	} {
		h, ok := snap.Histograms[obs.Lbl("span_seconds", "stage", stage)]
		if !ok || h.Count == 0 {
			t.Errorf("no span recorded for stage %s", stage)
		}
	}
	// The consistency counters must also survive a /metrics text render.
	var sb strings.Builder
	if err := obs.Default.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pipeline_thumbs_processed_total") {
		t.Error("WriteText dump missing pipeline counters")
	}
}

// TestStagePanicRecovery holds the pipeline's stages to par.For's panic
// rule (package par's TestForEachPanicRecovery): a stage that caps its
// fan-out does not lower the pipeline's setting on the way, and a panic in
// a background extraction is re-raised and counted under its stage.
func TestStagePanicRecovery(t *testing.T) {
	// A stage that caps its fan-out passes the cap down; it does not lower
	// the pipeline's own setting for the duration, so a lookup that panics
	// (no API client: the lookup dereferences nil) cannot leave it lowered.
	prevW := obs.SetLogOutput(nil)
	defer obs.SetLogOutput(prevW)
	p := &Pipeline{Concurrency: 16, pending: map[string]string{"id-1": "login-1"}}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "stage locate") {
				t.Fatalf("LocateStreamers without an API client: recovered %q, want a locate-stage panic", msg)
			}
		}()
		p.LocateStreamers(time.Now())
	}()
	if p.Concurrency != 16 {
		t.Fatalf("Concurrency = %d after a panicking lookup, want 16", p.Concurrency)
	}

	// A panic in a background extraction surfaces in ProcessThumbnails under
	// the same rule, each one counted as it is re-raised.
	obs.Reset()
	panicAhead(t)
	if c := obs.C(obs.Lbl("pipeline_worker_panics_total", "stage", "extract")); c.Value() != 2 {
		t.Fatalf("two background extractions panicked, panic counter = %d", c.Value())
	}
}
