// Command tero runs the complete Tero system against a simulated streaming
// platform: it generates a synthetic world, serves it over HTTP (developer
// API + thumbnail CDN + social profiles), drives the download module,
// image-processing, location and data-analysis modules, and prints volume,
// coverage and per-location latency summaries.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"tero/internal/core"
	"tero/internal/dist"
	"tero/internal/kvstore"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
	"tero/internal/stats"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the command's whole flag surface.
type options struct {
	seed        int64
	streamers   int
	days        int
	downloaders int
	concurrency int
	debugAddr   string
	trace       bool
	traceSample int
	metrics     bool
	logLevel    string
	faults      float64
	faultSeed   int64
	distributed int
	listen      string
}

// register declares every flag on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.Int64Var(&o.seed, "seed", 1, "world seed")
	fs.IntVar(&o.streamers, "streamers", 300, "synthetic streamer population")
	fs.IntVar(&o.days, "days", 2, "observation days (virtual)")
	fs.IntVar(&o.downloaders, "downloaders", 4, "parallel downloaders")
	fs.IntVar(&o.concurrency, "concurrency", 0,
		"pipeline worker parallelism (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"serve /metrics, /debug/pprof/ and /debug/traces on this address (e.g. localhost:6060 or :0)")
	fs.BoolVar(&o.trace, "trace", false,
		"record tail-sampled traces (inspect at /debug/traces on -debug-addr)")
	fs.IntVar(&o.traceSample, "trace-sample", 16,
		"keep 1 in N unremarkable traces (errors and slowest-per-stage always kept)")
	fs.BoolVar(&o.metrics, "metrics", false,
		"print an end-of-run metrics report")
	fs.StringVar(&o.logLevel, "log", "info",
		"log level: trace, debug, info, warn, error, off")
	fs.Float64Var(&o.faults, "faults", 0,
		"platform fault-injection rate (0 = off, 1 = calibrated default mix "+
			"of 500s, stalls, resets, truncated/corrupt thumbnails, dropped headers)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection schedule seed")
	fs.IntVar(&o.distributed, "distributed", 0,
		"coordinator mode: serve the store on -listen, wait for N teroworker "+
			"processes, and drive the run through them (0 = single-process)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7700",
		"kvstore listen address in -distributed mode")
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams, and returns the exit code. The
// store is in memory: a run cannot resume, so it keeps nothing on disk.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("tero", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if lv, ok := obs.ParseLevel(o.logLevel); ok {
		obs.SetLogLevel(lv)
	} else {
		fmt.Fprintf(stderr, "unknown -log level %q\n", o.logLevel)
		return 2
	}
	if o.debugAddr != "" {
		dbg, err := obs.ServeDebug(o.debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "debug server: %v\n", err)
			return 1
		}
		// Graceful: let an in-flight /metrics scrape or pprof profile finish
		// before the process exits, instead of cutting the listener.
		defer dbg.ShutdownTimeout(5 * time.Second) //nolint:errcheck
		fmt.Fprintf(stdout, "debug server listening on http://%s (metrics at /metrics, pprof at /debug/pprof/)\n",
			dbg.Addr)
	}
	if o.trace {
		// Seeded with the world seed: serial runs replay identical trace IDs.
		trace.Enable(uint64(o.seed))
		trace.SetSampleN(o.traceSample)
	}

	cfg := worldsim.DefaultConfig(o.seed)
	cfg.Streamers = o.streamers
	cfg.Days = o.days
	cfg.LocatableFrac = 0.6
	fmt.Fprintf(stdout, "generating world: %d streamers, %d days (seed %d)...\n",
		cfg.Streamers, cfg.Days, cfg.Seed)
	world := worldsim.New(cfg)

	platform := twitchsim.New(world)
	defer platform.Close()
	// Spans carry both clocks: wall for real durations, virtual for where a
	// reading sits in the simulated observation period.
	trace.SetVirtualClock(platform.Now)
	if o.faults > 0 {
		platform.SetFaults(twitchsim.ScaledFaults(o.faultSeed, o.faults))
		fmt.Fprintf(stdout, "fault injection on: rate %.2f, seed %d\n", o.faults, o.faultSeed)
	}
	fmt.Fprintf(stdout, "platform serving at %s\n", platform.URL())

	st := kvstore.New()
	p := pipeline.NewWithKV(platform.URL(), o.downloaders, st)
	p.Concurrency = o.concurrency
	totalTicks := cfg.Days * 24 * 30
	start := time.Now()
	var fleet pipeline.Fleet
	var coord *dist.Coordinator
	if o.distributed > 0 {
		// Coordinator mode: serve the store, wait for the fleet, then drive
		// lockstep rounds through it. The embedded downloaders stay idle;
		// the workers fetch.
		srv, err := kvstore.Serve(st, o.listen)
		if err != nil {
			fmt.Fprintf(stderr, "serve %s: %v\n", o.listen, err)
			return 1
		}
		defer srv.Close()
		coord = dist.NewCoordinator(p, st)
		fmt.Fprintf(stdout, "coordinator: store at %s — waiting for %d workers, start each with:\n"+
			"  teroworker -store %s\n", srv.Addr(), o.distributed, srv.Addr())
		if err := coord.WaitWorkers(o.distributed, 60*time.Second); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%d workers registered\n", o.distributed)
		fleet = coord
	}
	progress := func(i int) error {
		if i%(totalTicks/10+1) == 0 {
			fmt.Fprintf(stdout, "  virtual %s — %d thumbnails, %d measurements\n",
				platform.Now().Format("Jan 2 15:04"), p.Processed, p.Extracted)
		}
		return nil
	}
	// A degraded tick is a degraded round, not a reason to abandon the whole
	// observation period: the download module has already applied its
	// per-streamer backoff/release recovery.
	var degraded pipeline.Degraded
	if err := pipeline.Drive(platform, p, fleet, totalTicks, pipeline.TickEvery, progress); errors.As(err, &degraded) {
		fmt.Fprintf(stderr, "pipeline: %v\n", err)
	} else if err != nil {
		fmt.Fprintf(stderr, "coordinator: %v\n", err)
		return 1
	}
	if coord != nil {
		coord.EndRun()
	}
	fmt.Fprintf(stdout, "pipeline done in %s\n\n", time.Since(start).Round(time.Millisecond))
	if coord != nil {
		fmt.Fprintf(stdout, "distributed: %d rounds (%d makeup), %d results ingested (%d deduped), "+
			"%d workers died, %d claims reaped\n",
			coord.Rounds, coord.MakeupRounds, coord.Ingested, coord.Deduped,
			coord.DeadWorkers, coord.ReapedClaims)
		for _, ws := range coord.Stats() {
			fmt.Fprintf(stdout, "  worker %-12s rounds=%-5d claims=%-5d fetches=%-6d extracted=%d\n",
				ws.Worker, ws.Rounds, ws.Claims, ws.Fetches, ws.Extracted)
		}
		fmt.Fprintln(stdout)
	}

	if len(degraded) > 0 {
		fmt.Fprintf(stdout, "degraded ticks:        %d of %d (recovered via retry/release)\n",
			len(degraded), totalTicks)
	}
	if o.faults > 0 {
		rels := 0
		for _, d := range p.Downloaders {
			rels += d.Released
		}
		fmt.Fprintf(stdout, "faults injected:       %d (releases %d, quarantined %d)\n",
			platform.FaultsInjected, rels, p.Quarantined)
	}
	fmt.Fprintf(stdout, "thumbnails processed:  %d\n", p.Processed)
	fmt.Fprintf(stdout, "measurements:          %d (missed %d, lobby zeros %d)\n",
		p.Extracted, p.Missed, p.Zero)
	fmt.Fprintf(stdout, "streamers located:     %d (unlocatable %d)\n\n", p.Located, p.Unlocated)

	analyses := p.Analyze(core.DefaultParams())
	groups := core.GroupByLocation(analyses)

	var rows []distRow
	for key, as := range groups {
		if key.Loc.IsZero() {
			continue
		}
		dist := core.Distribution(as, core.DefaultParams())
		if len(dist) < 12 {
			continue
		}
		rows = append(rows, distRow{name: fmt.Sprintf("%s / %s", key.Loc, key.Game), box: stats.NewBoxplot(dist)})
	}
	writeDistributions(stdout, rows)

	if o.metrics {
		fmt.Fprintln(stdout, "\n== metrics ==")
		if err := obs.Default.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
		}
	}
	return 0
}

// distRow is one {location, game} line of the distribution table.
type distRow struct {
	name string
	box  stats.Boxplot
}

// writeDistributions prints the distribution table by p50, ties broken by
// name: the rows come from a map, so the table must not keep its order.
func writeDistributions(w io.Writer, rows []distRow) {
	slices.SortFunc(rows, func(a, b distRow) int {
		return cmp.Or(cmp.Compare(a.box.P50, b.box.P50), strings.Compare(a.name, b.name))
	})
	fmt.Fprintln(w, "latency distributions per {location, game} (≥12 measurements):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-55s n=%-5d p5=%5.0f p25=%5.0f p50=%5.0f p75=%5.0f p95=%5.0f\n",
			r.name, r.box.N, r.box.P5, r.box.P25, r.box.P50, r.box.P75, r.box.P95)
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (none with enough data; increase -streamers or -days)")
	}
}
