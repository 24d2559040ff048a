// Command teroserve runs the full Tero system end-to-end and serves its
// output as a latency-information query service (§1, §6): it generates a
// synthetic world, drives the platform → pipeline stages, publishes the
// per-{location, game} latency distributions into an in-memory index
// (one immutable snapshot per publish), and serves them over an HTTP API (JSON by default, the compact
// binary representation via Accept: application/x-tero-bin) —
// republishing on a virtual -refresh cadence while the observation period
// runs, without ever taking the API down.
//
// With -max-inflight / -shed-rate an admission gate sheds overload as 503 +
// Retry-After instead of queueing into collapse.
//
// With -loadtest N it additionally hammers its own API with N concurrent
// clients after the final publish and reports throughput and tail latency,
// exiting non-zero if any request got a non-shed 5xx. -probe-binary URL
// checks a running server's binary representation against its JSON
// float-for-float and exits. Performance numbers come from the benchmark
// in bench/ (see BENCHMARK.json), not from this command.
package main

import (
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
	"syscall"
	"time"

	"tero/internal/core"
	"tero/internal/obs"
	"tero/internal/obs/slo"
	"tero/internal/obs/trace"
	"tero/internal/pipeline"
	"tero/internal/serve"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the command's whole flag surface.
type options struct {
	addr        string
	seed        int64
	streamers   int
	days        int
	downloaders int
	concurrency int
	refresh     time.Duration
	maxInflight int
	shedRate    float64
	shedBurst   float64
	loadtest    int
	loadreqs    int
	probeBinary string
	logLevel    string
	faults      float64
	faultSeed   int64
	debugAddr   string
	trace       bool
	traceSample int
}

// register declares every flag on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "localhost:8080", "HTTP listen address (use :0 for an ephemeral port)")
	fs.Int64Var(&o.seed, "seed", 1, "world seed")
	fs.IntVar(&o.streamers, "streamers", 150, "synthetic streamer population")
	fs.IntVar(&o.days, "days", 2, "observation days (virtual)")
	fs.IntVar(&o.downloaders, "downloaders", 4, "parallel downloaders")
	fs.IntVar(&o.concurrency, "concurrency", 0,
		"pipeline and index-build worker parallelism (0 = GOMAXPROCS, 1 = serial)")
	fs.DurationVar(&o.refresh, "refresh", 6*time.Hour,
		"virtual time between index republishes while the observation runs")
	fs.IntVar(&o.maxInflight, "max-inflight", 0,
		"admission control: max concurrent requests (0 = unlimited)")
	fs.Float64Var(&o.shedRate, "shed-rate", 0,
		"admission control: sustained requests/second (0 = unlimited)")
	fs.Float64Var(&o.shedBurst, "shed-burst", 0,
		"admission control: token-bucket burst (0 = one second at -shed-rate)")
	fs.IntVar(&o.loadtest, "loadtest", 0,
		"after the final publish, run a load test with this many concurrent clients and exit")
	fs.IntVar(&o.loadreqs, "loadtest-requests", 200, "load-test requests per client")
	fs.StringVar(&o.probeBinary, "probe-binary", "",
		"probe a running server at this base URL: fetch one entry as JSON and binary, verify equality, exit")
	fs.StringVar(&o.logLevel, "log", "info",
		"log level: trace, debug, info, warn, error, off")
	fs.Float64Var(&o.faults, "faults", 0,
		"platform fault-injection rate (0 = off, 1 = calibrated default mix)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection schedule seed")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"serve /metrics, /debug/pprof/ and /debug/traces on this address (e.g. localhost:6060 or :0)")
	fs.BoolVar(&o.trace, "trace", false,
		"record tail-sampled traces across pipeline, serve and -loadtest clients (inspect at /debug/traces)")
	fs.IntVar(&o.traceSample, "trace-sample", 16,
		"keep 1 in N unremarkable traces (errors and slowest-per-stage always kept)")
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("teroserve", flag.ContinueOnError)
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

	if o.probeBinary != "" {
		return probeBinaryEquality(o.probeBinary, stdout, stderr)
	}

	if o.trace {
		// Seeded with the world seed: serial runs replay identical trace IDs.
		trace.Enable(uint64(o.seed))
		trace.SetSampleN(o.traceSample)
	}
	if o.debugAddr != "" {
		dbg, err := obs.ServeDebug(o.debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "debug server: %v\n", err)
			return 1
		}
		defer dbg.ShutdownTimeout(5 * time.Second) //nolint:errcheck
		fmt.Fprintf(stdout, "debug server listening on http://%s (metrics at /metrics, traces at /debug/traces)\n",
			dbg.Addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Serving side first: the API is up (reporting not-ready) before the
	// pipeline produces anything, the way a real deployment rolls out.
	ix := serve.NewIndex(0)
	srv := serve.NewServer(ix)
	if o.maxInflight > 0 || o.shedRate > 0 {
		srv.SetAdmission(serve.NewAdmission(o.maxInflight, o.shedRate, o.shedBurst))
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(stderr, "listen %s: %v\n", o.addr, err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Shutdown
	defer func() {
		sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(sdCtx) //nolint:errcheck
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "teroserve listening at %s (not ready until first publish)\n", baseURL)

	// Producer side: world, platform, pipeline — as in cmd/tero.
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

	p := pipeline.New(platform.URL(), o.downloaders)
	p.Concurrency = o.concurrency
	params := core.DefaultParams()
	builder := serve.NewBuilder(params)
	builder.Concurrency = o.concurrency

	// Declared SLOs, evaluated after every publish (virtual cadence) and on
	// a wall ticker while serving. Freshness runs on the virtual clock —
	// "p99 of readings become queryable within 12 virtual hours" — while
	// serve availability runs on wall time over the 5xx share of requests.
	slos := slo.NewSet()
	slos.Add(
		&slo.Objective{
			Name:   "freshness_p99",
			Target: 0.99,
			SLI: slo.HistogramThreshold{
				H: pipeline.FreshnessHistogram(), Threshold: 43200,
			},
			Windows: []time.Duration{6 * time.Hour, 24 * time.Hour},
			Clock:   platform.Now,
		},
		&slo.Objective{
			Name:   "serve_availability",
			Target: 0.999,
			SLI: slo.CounterRatio{
				Good: func() float64 { g, _ := serve.RequestTotals(); return g },
				Bad:  func() float64 { _, b := serve.RequestTotals(); return b },
			},
			Windows: []time.Duration{5 * time.Minute, time.Hour},
		},
	)
	srv.SetStatusReport(slos.Report)

	// One refresh, the loop bench/ runs too. The builder knows what changed:
	// on an idle tick Build returns the snapshot the index already holds and
	// Swap skips it (serve_publish_skipped_total).
	publish := func() {
		p.ProcessThumbnails()
		p.LocateStreamers(platform.Now())
		n := p.PublishAt(builder, params, platform.Now())
		before := ix.Version()
		entries := ix.Swap(builder.Build())
		slos.Evaluate()
		if ix.Version() != before {
			fmt.Fprintf(stdout, "  published: %d analyses -> %d servable {location, game} entries (version %d)\n",
				n, entries, ix.Version())
		}
	}

	tickEvery := 2 * time.Minute
	refreshTicks := int(o.refresh / tickEvery)
	if refreshTicks < 1 {
		refreshTicks = 1
	}
	totalTicks := cfg.Days * 24 * 30
	start := time.Now()
	tickErrs := 0
	for i := 0; i < totalTicks && ctx.Err() == nil; i++ {
		if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
			tickErrs++
			if tickErrs <= 5 {
				fmt.Fprintf(stderr, "pipeline: tick %d degraded: %v\n", i, err)
			}
		}
		if i%200 == 0 {
			p.ProcessThumbnails()
		}
		// Incremental republish mid-serve: readers keep getting answers
		// from the previous snapshot while the new one is built and
		// swapped in.
		if i > 0 && i%refreshTicks == 0 {
			publish()
		}
		platform.Advance(tickEvery)
	}
	publish()
	fmt.Fprintf(stdout, "pipeline done in %s (%d measurements, %d located, %d degraded ticks)\n",
		time.Since(start).Round(time.Millisecond), p.Extracted, p.Located, tickErrs)

	if cat := ix.Catalog(); cat != nil && len(cat.Locations) > 0 {
		l := cat.Locations[0]
		v := url.Values{}
		v.Set("location", l.Location.Key)
		v.Set("game", l.Games[0])
		fmt.Fprintf(stdout, "sample query: %s/v1/latency?%s\n", baseURL, v.Encode())
	} else {
		fmt.Fprintln(stdout, "warning: no servable entries (increase -streamers or -days)")
	}

	if o.loadtest > 0 {
		lg := &serve.LoadGen{
			BaseURL:           baseURL,
			Clients:           o.loadtest,
			RequestsPerClient: o.loadreqs,
			Trace:             o.trace,
		}
		rep, err := lg.Run(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "loadtest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "loadtest:\n%s\n", rep)
		// Sheds are admission control doing its job, not failures; only
		// genuine 5xx (or the transport falling over) fails the run.
		if rep.ServerErrors > 0 {
			fmt.Fprintf(stderr, "loadtest: %d server errors\n", rep.ServerErrors)
			return 1
		}
		return 0
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
