// Package experiments contains one runner per table and figure of the
// paper's evaluation (§4-§6 and the appendix), over the synthetic world.
// Each runner returns printable tables; cmd/teroexp and the repository
// benchmarks call into here. DESIGN.md holds the experiment index and
// EXPERIMENTS.md records paper-versus-measured outcomes.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Options tunes experiment scale.
type Options struct {
	// Seed for the synthetic world.
	Seed int64
	// Scale multiplies default workload sizes (1.0 = default; benchmarks
	// use less, full runs more).
	Scale float64
	// Concurrency is the worker parallelism of the CPU-heavy experiment
	// stages (extraction, testbed sweeps) and of the pipeline experiments
	// drive. 0 means GOMAXPROCS; 1 runs fully serially. Results are
	// identical at every setting.
	Concurrency int
	// Faults scales the platform's fault-injection mix for the pipeline
	// experiments (0 = off, 1 = the calibrated recoverable default); the
	// schedule is pinned by FaultSeed. With recoverable rates the output
	// tables are byte-identical to a fault-free run — the chaos experiment
	// verifies exactly that.
	Faults    float64
	FaultSeed int64
	// StoreExec is the path to a terokv binary; when set, the chaos-store
	// experiment adds a leg that runs the store as a real child process
	// and SIGKILLs it mid-run (scripts/check.sh uses this for a true
	// kill-9 smoke). Empty = in-process crash simulation only.
	StoreExec string
	// WorkerExec is the path to a teroworker binary; when set, the
	// dist-scale experiment runs its fleets as real child processes (and
	// SIGKILLs one in the crash leg). Empty = in-process workers over real
	// TCP.
	WorkerExec string
	// DistFleets overrides the dist-scale experiment's fleet sizes
	// (default 1, 2, 4, 8).
	DistFleets []int
}

func (o Options) scaled(n int) int {
	if o.Scale <= 0 {
		return n
	}
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Runner executes one experiment.
type Runner func(Options) ([]*Table, error)

// registry maps experiment IDs to runners; populated by init() functions in
// the per-experiment files.
var registry = map[string]Runner{}

// descriptions holds a one-line summary per experiment.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// Run executes the experiment with the given ID.
func Run(id string, o Options) ([]*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	return r(o)
}

// List returns all experiment IDs with descriptions, sorted.
func List() [][2]string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([][2]string, len(ids))
	for i, id := range ids {
		out[i] = [2]string{id, descriptions[id]}
	}
	return out
}

// sortedKeys returns the map's keys in sorted order, so loops that consume
// a shared random source are deterministic despite Go's randomized map
// iteration.
func sortedKeys[M map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
