package experiments

import (
	"sort"
	"strings"

	"tero/internal/obs"
)

func init() {
	register("chaos",
		"fault-injection determinism: faulted pipeline run vs fault-free golden",
		runChaos)
}

// counterDelta snapshots the Default registry's counters and returns a
// closure producing the per-counter increase since the snapshot.
func counterDelta() func() map[string]int64 {
	before := obs.Default.Snapshot().Counters
	return func() map[string]int64 {
		after := obs.Default.Snapshot().Counters
		d := make(map[string]int64, len(after))
		for name, v := range after {
			if inc := v - before[name]; inc != 0 {
				d[name] = inc
			}
		}
		return d
	}
}

// runChaos is the crash-tolerance experiment: drive the full pipeline twice
// over the same world — once fault-free, once under the seeded recoverable
// fault mix — and report (a) every fault injected and every recovery action
// taken, and (b) whether the output tables are byte-identical, which is the
// determinism guarantee the download path's retry/backoff/release design
// exists to provide.
func runChaos(o Options) ([]*Table, error) {
	rate := o.Faults
	if rate <= 0 {
		rate = 1
	}
	seed := o.FaultSeed
	if seed == 0 {
		seed = 1
	}

	golden := o
	golden.Faults = 0
	goldTabs, err := runVolume(golden)
	if err != nil {
		return nil, err
	}

	faulted := o
	faulted.Faults = rate
	faulted.FaultSeed = seed
	delta := counterDelta()
	faultTabs, err := runVolume(faulted)
	if err != nil {
		return nil, err
	}
	d := delta()

	renderTabs := func(ts []*Table) string {
		var sb strings.Builder
		for _, t := range ts {
			sb.WriteString(t.String())
		}
		return sb.String()
	}
	goldOut, faultOut := renderTabs(goldTabs), renderTabs(faultTabs)

	t := &Table{
		Title:  "Chaos run (seeded fault injection) vs fault-free golden",
		Header: []string{"metric", "value"},
	}
	// Faults injected, by kind, in sorted label order.
	var faultKeys []string
	totalFaults := int64(0)
	for name, v := range d {
		if strings.HasPrefix(name, "twitchsim_faults_injected_total{") {
			faultKeys = append(faultKeys, name)
			totalFaults += v
		}
	}
	sort.Strings(faultKeys)
	t.AddRow("faults injected (total)", itoa(int(totalFaults)))
	for _, name := range faultKeys {
		kind := strings.TrimSuffix(
			strings.TrimPrefix(name, "twitchsim_faults_injected_total{kind="), "}")
		t.AddRow("  "+kind, itoa(int(d[name])))
	}
	t.AddRow("fetch retries", itoa(int(d["download_fetch_retries_total"])))
	t.AddRow("fetch cycles failed", itoa(int(d["download_fetch_failures_total"])))
	t.AddRow("corrupt bodies detected", itoa(int(d["download_body_corrupt_total"])))
	t.AddRow("api retries", itoa(int(d["download_api_retries_total"])))
	t.AddRow("streamers released", itoa(int(d["download_released_total"])))
	t.AddRow("thumbnails quarantined", itoa(int(d["pipeline_thumbs_quarantined_total"])))
	panics := int64(0)
	for name, v := range d {
		if strings.HasPrefix(name, "pipeline_worker_panics_total") {
			panics += v
		}
	}
	t.AddRow("worker panics", itoa(int(panics)))
	identical := "yes"
	if goldOut != faultOut {
		identical = "NO"
		t.Notes = append(t.Notes, "first diverging line: "+firstDiffLine(goldOut, faultOut))
	}
	t.AddRow("tables byte-identical", identical)
	t.Notes = append(t.Notes,
		"recoverable fault mix: every fault retried/backed-off inside the same "+
			"thumbnail window, so the faulted run measures exactly what the "+
			"fault-free run measures")
	return append([]*Table{t}, faultTabs...), nil
}

// firstDiffLine returns the first line where a and b diverge.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "golden:" + la[i] + " | faulted:" + lb[i]
		}
	}
	return "<length mismatch>"
}
