// Command bench is Tero's one benchmark: a thumbnail becoming a queryable
// {location, game} latency answer, measured end to end and layer by layer
// on a fixture that is recorded once per run and then replayed.
//
//	go run -C bench . -workload ingest_replay -seed 1 -seconds 8 -trace 0
//
// runs one workload and prints, as the last line of standard output, one
// JSON object with the run's metrics: the end-to-end ones with -trace 0, the
// per-layer ones with -trace 1. Without -workload every workload runs, each
// untraced and then traced. -compare a.jsonl b.jsonl judges two result
// files against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"tero/internal/obs"
	"tero/internal/stats"
)

// manifest mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are declared. The harness prints exactly the
// metrics it lists.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) == 0 || len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or metrics declared", path)
	}
	return &m, nil
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	commit   string
}

func traceFile(cfg runConfig) string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
}

type metric struct {
	value   float64
	samples int
}

// result is what one run measured and checked.
type result struct {
	attempted, failed int
	problems          []string
	setupS            []float64
	metrics           map[string]metric

	tracer *tracer // traced runs: the spans to write out
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = metric{v, samples}
}

// fail counts failed operations and keeps the first few descriptions.
func (r *result) fail(problems ...string) {
	r.failed += len(problems)
	for _, p := range problems {
		if len(r.problems) < 12 {
			r.problems = append(r.problems, p)
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// row is one metric of one run in the result file: self-describing, so a
// trajectory across commits can be built from the files alone.
type row struct {
	Workload   string  `json:"workload"`
	Layer      string  `json:"layer"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
}

func newRow(cfg runConfig, layer, metric string, value float64, unit string, samples int) row {
	return row{cfg.workload, layer, metric, value, unit, samples, cfg.seed, cfg.commit,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()}
}

func workloadFunc(name string) func(runConfig) (*result, error) {
	switch name {
	case "extract_batch", "ingest_replay":
		return runIngest
	case "serve_read", "serve_mixed":
		return runServe
	}
	return nil
}

// runOne runs one workload in one mode, prints its metrics as a table and
// as the contract's JSON line, appends its rows to the result file, and
// reports whether every check held.
func runOne(m *manifest, cfg runConfig) (bool, error) {
	fn := workloadFunc(cfg.workload)
	if fn == nil {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	res, err := fn(cfg)
	if err != nil {
		return false, err
	}
	if len(res.setupS) > 0 {
		res.set("setup_s", stats.Median(res.setupS), len(res.setupS))
	}
	if tr := res.tracer; tr != nil {
		if err := tr.write(traceFile(cfg), tr.trace); err != nil {
			return false, err
		}
		logf("spans of the last traced pass written to %s", traceFile(cfg))
	}

	specs, layer := m.EndToEnd, "end_to_end"
	if cfg.trace {
		specs, layer = m.PerLayer, ""
	}
	declared := map[string]bool{}
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	var rows []row
	fmt.Printf("%-14s %-34s %16s %-6s %s\n", "workload", "metric", "value", "unit", "samples")
	for _, s := range specs {
		declared[s.Name] = true
		// A layer the workload never enters reports 0 work, which is the
		// prediction for it; an end-to-end metric has no such excuse.
		v, ok := res.metrics[s.Name]
		if !ok && !cfg.trace {
			res.fail("end-to-end metric " + s.Name + " was not measured")
		}
		out.Metrics[s.Name] = outMetric{v.value, s.Unit}
		l := layer
		if l == "" {
			l = layerOf(s.Name)
		}
		rows = append(rows, newRow(cfg, l, s.Name, v.value, s.Unit, v.samples))
		fmt.Printf("%-14s %-34s %16.4f %-6s %d\n", cfg.workload, s.Name, v.value, s.Unit, v.samples)
	}
	for name := range res.metrics {
		// setup_s is end-to-end only; anything else undeclared is a
		// metric BENCHMARK.json forgot.
		if !declared[name] && name != "setup_s" {
			res.fail("metric " + name + " is not declared in BENCHMARK.json")
		}
	}
	out.Failed = res.failed
	out.Correct = res.failed == 0 && res.attempted > 0
	if !cfg.trace {
		// -compare reads these two to see whether failures rose.
		for _, c := range []struct {
			name string
			n    int
		}{{"attempted", res.attempted}, {"failed", res.failed}} {
			rows = append(rows, newRow(cfg, "check", c.name, float64(c.n), "count", 1))
		}
	}
	for _, p := range res.problems {
		logf("FAILED: %s", p)
	}
	if err := appendRows(filepath.Join(cfg.outDir, "results.jsonl"), rows); err != nil {
		return false, err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

func appendRows(path string, rows []row) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload (default: all, each untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed for the world, key popularity and request mix")
		seconds  = flag.Float64("seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json)")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes")
		mpath    = flag.String("manifest", "../BENCHMARK.json", "the benchmark's declaration")
		outDir   = flag.String("out", "out", "directory for results.jsonl and trace-<workload>.json")
		commit   = flag.String("commit", "unknown", "commit id to stamp result rows with")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	// The layers log every swap and poll at info; only real trouble belongs
	// in a benchmark's output.
	obs.SetLogLevel(obs.LevelError)

	m, err := loadManifest(*mpath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("usage: -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(m, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn != 0,
		outDir: *outDir, commit: *commit}
	if *workload != "" {
		ok, err := runOne(m, cfg)
		if err != nil {
			logf("%v", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = w.Name, traced
			ok, err := runOne(m, cfg)
			if err != nil {
				logf("%s: %v", w.Name, err)
				return 1
			}
			if !ok {
				code = 1
			}
		}
	}
	return code
}

// ---- -compare ----

func readRows(path string) (map[[2]string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[[2]string][]float64{}
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r row
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		k := [2]string{r.Workload, r.Metric}
		out[k] = append(out[k], r.Value)
	}
	return out, nil
}

// verdict judges one {workload, metric}: how far b's median is on the wrong
// side of a's, against the bound, with the spread of a's own runs deciding
// whether the comparison can be trusted at all.
func verdict(spec metricSpec, a, b []float64) (string, float64) {
	ma, mb := stats.Median(a), stats.Median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > spec.Bound && quartileSpread(a) > spec.Bound:
		return "unresolved", worse
	case worse > spec.Bound:
		return "regressed", worse
	case quartileSpread(a) > spec.Bound || quartileSpread(b) > spec.Bound:
		return "unresolved", worse
	}
	return "ok", worse
}

func compareFiles(m *manifest, pathA, pathB string) int {
	a, err := readRows(pathA)
	if err != nil {
		logf("%v", err)
		return 2
	}
	b, err := readRows(pathB)
	if err != nil {
		logf("%v", err)
		return 2
	}
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	specs := map[string]metricSpec{}
	for _, s := range m.EndToEnd {
		specs[s.Name] = s
	}
	code := 0
	for _, k := range keys {
		// Any rise in the share of failed operations is a regression,
		// whatever the timings say.
		if k[1] != "failed" {
			continue
		}
		att := [2]string{k[0], "attempted"}
		ra, rb := stats.Sum(a[k])/stats.Sum(a[att]), stats.Sum(b[k])/stats.Sum(b[att])
		if rb > ra {
			fmt.Printf("%-14s fail_ratio rose from %.6f to %.6f: regressed\n", k[0], ra, rb)
			code = 1
		}
	}
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	for _, k := range keys {
		spec, ok := specs[k[1]]
		if !ok {
			continue // per-layer metrics carry no bound
		}
		v, worse := verdict(spec, a[k], b[k])
		if v == "regressed" {
			code = 1
		}
		fmt.Printf("%-14s %-18s %14.4f %14.4f %8.1f%% %6.0f%% %6.1f%%  %s\n", k[0], k[1],
			stats.Median(a[k]), stats.Median(b[k]), 100*worse, 100*spec.Bound, 100*quartileSpread(a[k]), v)
	}
	return code
}
