package experiments

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tero/internal/obs"
)

// TestMetricsDoNotPerturbTables is the observability determinism
// regression: the experiment suite renders byte-identical tables whether
// the obs layer is silenced or fully enabled (trace logging to a live sink,
// debug server up and scraped mid-run).
func TestMetricsDoNotPerturbTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice is not short")
	}
	ids := []string{"volume", "tab4", "fig4", "fig7", "fig13", "dense"}
	o := Options{Seed: 9, Scale: 0.15, Concurrency: 4}

	runAll := func() string {
		var sb strings.Builder
		for _, id := range ids {
			tabs, err := Run(id, o)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			sb.WriteString(render(tabs))
		}
		return sb.String()
	}

	// Pass 1: observability silenced.
	obs.Reset()
	prevLevel := obs.SetLogLevel(obs.LevelOff)
	silent := runAll()

	// Pass 2: everything on — trace logs into a buffer, metrics collected,
	// debug server scraped while experiments run.
	obs.Reset()
	var logBuf bytes.Buffer
	prevW := obs.SetLogOutput(&logBuf)
	obs.SetLogLevel(obs.LevelTrace)
	dbg, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loud := runAll()
	resp, err := http.Get("http://" + dbg.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := dbg.ShutdownTimeout(5 * time.Second); err != nil {
		t.Errorf("debug server shutdown: %v", err)
	}
	obs.SetLogLevel(prevLevel)
	obs.SetLogOutput(prevW)

	if silent != loud {
		line := firstDiff(silent, loud)
		t.Fatalf("tables diverge when observability is enabled: %s", line)
	}
	// Sanity: the loud pass really was loud.
	if logBuf.Len() == 0 {
		t.Error("trace pass emitted no log lines")
	}
	for _, want := range []string{
		"pipeline_thumbs_processed_total",
		"span_seconds{stage=pipeline.extract}",
		"twitchsim_http_requests_total",
		"download_api_requests_total",
		"docstore_ops_total{op=insert}",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics scrape missing %s", want)
		}
	}
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "silent:" + la[i] + " loud:" + lb[i]
		}
	}
	return "<length mismatch>"
}
