// Command tero runs the complete Tero system against a simulated streaming
// platform: it generates a synthetic world, serves it over HTTP (developer
// API + thumbnail CDN + social profiles), drives the download module,
// image-processing, location and data-analysis modules, and prints volume,
// coverage and the per-{location, game} latency distributions of the
// snapshot the query service (internal/serve) builds. With -addr it serves
// that snapshot as a JSON HTTP API (§1, §6), republished after every drain,
// until signalled (SIGINT or SIGTERM).
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"tero/internal/core"
	"tero/internal/dist"
	"tero/internal/kvstore"
	"tero/internal/obs"
	"tero/internal/obs/slo"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/stats"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
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
	addr        string
}

// register declares every flag on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.Int64Var(&o.seed, "seed", 1, "world seed")
	fs.IntVar(&o.streamers, "streamers", 300, "synthetic streamer population")
	fs.IntVar(&o.days, "days", 2, "observation days (virtual)")
	fs.IntVar(&o.downloaders, "downloaders", 4, "parallel downloaders")
	fs.IntVar(&o.concurrency, "concurrency", 0,
		"pipeline and index-build worker parallelism (0 = GOMAXPROCS, 1 = serial)")
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
	fs.StringVar(&o.addr, "addr", "",
		"serve the latency API on this address, republished after every drain, "+
			"until signalled (e.g. localhost:8080 or :0; empty = no listener)")
}

// worldConfig is the synthetic world the flags describe.
func (o *options) worldConfig() worldsim.Config {
	cfg := worldsim.DefaultConfig(o.seed)
	cfg.Streamers = o.streamers
	cfg.Days = o.days
	cfg.LocatableFrac = 0.6
	return cfg
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams, and returns the exit code. The
// store is in memory: a run cannot resume, so it keeps nothing on disk. A
// run with -addr serves until ctx is done; a ctx done mid-run ends either
// kind of run with "shutting down" and exit 0.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
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

	// Serving side first: the API is up (reporting not-ready) before the
	// pipeline produces anything, the way a real deployment rolls out.
	var ix *serve.Index
	var srv *serve.Server
	var base string
	if o.addr != "" {
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			fmt.Fprintf(stderr, "listen %s: %v\n", o.addr, err)
			return 1
		}
		ix = serve.NewIndex(0)
		srv = serve.NewServer(ix)
		httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
		go httpSrv.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Shutdown
		defer func() {
			sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			httpSrv.Shutdown(sdCtx) //nolint:errcheck
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stdout, "tero serving /v1 at %s (not ready until first publish)\n", base)
	}

	cfg := o.worldConfig()
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
	params := core.DefaultParams()
	builder := serve.NewBuilder(params)
	builder.Concurrency = o.concurrency
	totalTicks := cfg.Days * 24 * 30
	start := time.Now()
	var fleet pipeline.Fleet
	var coord *dist.Coordinator
	if o.distributed > 0 {
		// Coordinator mode: serve the store, wait for the fleet, then drive
		// lockstep rounds through it. The embedded downloaders stay idle;
		// the workers fetch.
		kvSrv, err := kvstore.Serve(st, o.listen)
		if err != nil {
			fmt.Fprintf(stderr, "serve %s: %v\n", o.listen, err)
			return 1
		}
		defer kvSrv.Close()
		coord = dist.NewCoordinator(p, st)
		fmt.Fprintf(stdout, "coordinator: store at %s — waiting for %d workers, start each with:\n"+
			"  teroworker -store %s\n", kvSrv.Addr(), o.distributed, kvSrv.Addr())
		if err := coord.WaitWorkers(ctx, o.distributed, 60*time.Second); err != nil && ctx.Err() != nil {
			fmt.Fprintln(stdout, "shutting down")
			return 0
		} else if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%d workers registered\n", o.distributed)
		fleet = coord
	}

	var slos *slo.Set
	if ix != nil {
		slos = declareSLOs(platform.Now)
		srv.SetStatusReport(slos.Report)
	}
	// publish builds what the run has drained so far and, in a serving run,
	// swaps it in; when nothing changed, Build returns the snapshot the index
	// already holds and Swap skips it (serve_publish_skipped_total).
	publish := func() *serve.Snapshot {
		p.PublishAt(builder, params, platform.Now())
		snap := builder.Build()
		if ix != nil {
			ix.Swap(snap)
			slos.Evaluate()
		}
		return snap
	}
	// A serving run locates and publishes after every drain, the production
	// loop bench/ measures. A run without -addr locates once, at the end of
	// Drive, so its table does not depend on a publish cadence.
	onTick := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i%(totalTicks/10+1) == 0 {
			fmt.Fprintf(stdout, "  virtual %s — %d thumbnails, %d measurements\n",
				platform.Now().Format("Jan 2 15:04"), p.Processed, p.Extracted)
		}
		if ix != nil && i%pipeline.DrainEvery == 0 {
			p.LocateStreamers(platform.Now())
			publish()
		}
		return nil
	}
	// A degraded tick is a degraded round, not a reason to abandon the whole
	// observation period: the download module has already applied its
	// per-streamer backoff/release recovery.
	var degraded pipeline.Degraded
	if err := pipeline.Drive(platform, p, fleet, totalTicks, pipeline.TickEvery, onTick); errors.As(err, &degraded) {
		fmt.Fprintf(stderr, "pipeline: %v\n", err)
	} else if err != nil && ctx.Err() != nil {
		fmt.Fprintln(stdout, "shutting down")
		return 0
	} else if err != nil {
		fmt.Fprintf(stderr, "coordinator: %v\n", err)
		return 1
	}
	if coord != nil {
		coord.EndRun()
	}
	// The answer. Drive's last step located every streamer the quota let
	// it, so this publish locates nothing.
	snap := publish()
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

	var rows []distRow
	for _, e := range snap.Entries {
		if e.N() >= 12 {
			rows = append(rows, distRow{name: fmt.Sprintf("%s / %s", e.Location, e.Game), box: stats.NewBoxplot(e.Sorted)})
		}
	}
	writeDistributions(stdout, rows)

	if o.metrics {
		fmt.Fprintln(stdout, "\n== metrics ==")
		if err := obs.Default.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
		}
	}
	if ix == nil {
		return 0
	}

	fmt.Fprintf(stdout, "index version %d: %d servable {location, game} entries\n", ix.Version(), len(snap.Entries))
	if cat := ix.Catalog(); len(cat.Locations) > 0 {
		l := cat.Locations[0]
		q := url.Values{"location": {l.Location.Key}, "game": {l.Games[0]}}
		fmt.Fprintf(stdout, "sample query: %s/v1/latency?%s\n", base, q.Encode())
	}
	fmt.Fprintln(stdout, "serving (Ctrl-C to stop)...")
	// While serving, keep the wall-window burn rates moving even with no
	// publishes happening (the availability SLO windows are wall time).
	sloTick := time.NewTicker(15 * time.Second)
	defer sloTick.Stop()
	for {
		select {
		case <-sloTick.C:
			slos.Evaluate()
		case <-ctx.Done():
			fmt.Fprintln(stdout, "shutting down")
			return 0
		}
	}
}

// declareSLOs returns the serving run's objectives, evaluated after every
// publish and on a wall ticker while serving, and reported on /readyz.
// Freshness runs on the virtual clock — "p99 of readings become queryable
// within 12 virtual hours" — while serve availability runs on wall time over
// the 5xx share of /v1 requests.
func declareSLOs(clock func() time.Time) *slo.Set {
	slos := slo.NewSet()
	slos.Add(&slo.Objective{
		Name: "freshness_p99", Target: 0.99, Clock: clock,
		SLI:     slo.HistogramThreshold{H: pipeline.FreshnessHistogram(), Threshold: 43200},
		Windows: []time.Duration{6 * time.Hour, 24 * time.Hour},
	}, &slo.Objective{
		Name: "serve_availability", Target: 0.999,
		SLI: slo.CounterRatio{
			Good: func() float64 { g, _ := serve.RequestTotals(); return g },
			Bad:  func() float64 { _, b := serve.RequestTotals(); return b },
		},
		Windows: []time.Duration{5 * time.Minute, time.Hour},
	})
	return slos
}

// distRow is one {location, game} line of the distribution table.
type distRow struct {
	name string
	box  stats.Boxplot
}

// writeDistributions prints the distribution table by p50, ties broken by
// name: the rows arrive in entry-key order, which the table must not keep.
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
