// Command tero runs the complete Tero system against a simulated streaming
// platform: it generates a synthetic world, serves it over HTTP (developer
// API + thumbnail CDN + social profiles), drives the download module,
// image-processing, location and data-analysis modules, and prints volume,
// coverage and per-location latency summaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"tero/internal/core"
	"tero/internal/dist"
	"tero/internal/kvstore"
	"tero/internal/objstore"
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
	kvDir       string
	kvFsync     string
	kvCompact   int
	distributed int
	listen      string
	objDir      string
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
	fs.StringVar(&o.kvDir, "kv-dir", "",
		"durable kvstore directory: recover state on start, append-only-log every write "+
			"(empty = in-memory only)")
	fs.StringVar(&o.kvFsync, "kv-fsync", kvstore.FsyncInterval,
		"kvstore aof fsync policy: always, interval, never")
	fs.IntVar(&o.kvCompact, "kv-compact-every", 10000,
		"kvstore snapshot+compaction threshold in appended commands (0 = never)")
	fs.IntVar(&o.distributed, "distributed", 0,
		"coordinator mode: serve the store on -listen, wait for N teroworker "+
			"processes, and drive the run through them (0 = single-process)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7700",
		"kvstore+objstore listen address in -distributed mode")
	fs.StringVar(&o.objDir, "obj-dir", "",
		"spill thumbnail payload bytes to files under this directory "+
			"(write-through; metadata stays in memory)")
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams, and returns the exit code. Every
// failure returns through the deferred cleanups — the kvstore's Close is
// what flushes the buffered tail of a durable -kv-dir log.
func run(args []string, stdout, stderr io.Writer) (code int) {
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

	var st *kvstore.Store
	if o.kvDir != "" {
		s, err := kvstore.Open(o.kvDir, kvstore.PersistOptions{
			Fsync: o.kvFsync, CompactEvery: o.kvCompact})
		if err != nil {
			fmt.Fprintf(stderr, "kvstore: %v\n", err)
			return 1
		}
		defer func() {
			if err := s.Close(); err != nil {
				fmt.Fprintf(stderr, "kvstore: close: %v\n", err)
				code = max(code, 1)
			}
		}()
		fmt.Fprintf(stdout, "kvstore durable at %s (fsync=%s, %d keys recovered)\n",
			o.kvDir, o.kvFsync, s.Len())
		st = s
	} else {
		st = kvstore.New()
	}
	var objects *objstore.Store
	if o.objDir != "" {
		spill, err := objstore.NewSpill(o.objDir)
		if err != nil {
			fmt.Fprintf(stderr, "objstore: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "objstore spilling payloads under %s\n", o.objDir)
		objects = spill
	} else {
		objects = objstore.New()
	}
	p := pipeline.NewWithKV(platform.URL(), o.downloaders, st)
	p.Objects = objects
	for _, d := range p.Downloaders {
		d.Store = objects
	}
	p.Concurrency = o.concurrency
	totalTicks := cfg.Days * 24 * 30
	start := time.Now()
	tickErrs := 0
	var coord *dist.Coordinator
	if o.distributed > 0 {
		// Coordinator mode: serve the store (key-value + object buckets on
		// one wire), wait for the fleet, then drive lockstep rounds through
		// it. The embedded downloaders stay idle; the workers fetch.
		srv, err := kvstore.Serve(st, o.listen)
		if err != nil {
			fmt.Fprintf(stderr, "serve %s: %v\n", o.listen, err)
			return 1
		}
		defer srv.Close()
		srv.AttachObjects(objects)
		coord = dist.NewCoordinator(p, st, objects)
		coord.Announce(platform.URL())
		fmt.Fprintf(stdout, "coordinator: store+objects at %s — waiting for %d workers, start each with:\n"+
			"  teroworker -store %s\n", srv.Addr(), o.distributed, srv.Addr())
		if err := coord.WaitWorkers(o.distributed, 60*time.Second); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%d workers registered\n", o.distributed)
		for i := 0; i < totalTicks; i++ {
			if err := coord.Tick(platform.Now(), i, i%3 == 0); err != nil {
				fmt.Fprintf(stderr, "coordinator: tick %d: %v\n", i, err)
				return 1
			}
			if i%(totalTicks/10+1) == 0 {
				fmt.Fprintf(stdout, "  virtual %s — %d thumbnails, %d measurements\n",
					platform.Now().Format("Jan 2 15:04"), p.Processed, p.Extracted)
			}
			platform.Advance(2 * time.Minute)
		}
		coord.EndRun()
	} else {
		for i := 0; i < totalTicks; i++ {
			if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
				// The download module has already applied its per-streamer
				// backoff/release recovery: a tick error is a degraded round,
				// not a reason to abandon the whole observation period.
				tickErrs++
				if tickErrs <= 5 {
					fmt.Fprintf(stderr, "pipeline: tick %d degraded: %v\n", i, err)
				}
			}
			if i%200 == 0 {
				p.ProcessThumbnails()
			}
			if i%(totalTicks/10+1) == 0 {
				fmt.Fprintf(stdout, "  virtual %s — %d thumbnails, %d measurements\n",
					platform.Now().Format("Jan 2 15:04"), p.Processed, p.Extracted)
			}
			platform.Advance(2 * time.Minute)
		}
		p.ProcessThumbnails()
	}
	p.LocateStreamers(platform.Now())
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

	if tickErrs > 0 {
		fmt.Fprintf(stdout, "degraded ticks:        %d of %d (recovered via retry/release)\n",
			tickErrs, totalTicks)
	}
	if o.faults > 0 {
		rels, reaps := 0, 0
		for _, d := range p.Downloaders {
			rels += d.Released
		}
		reaps = p.Coordinator.Reaped
		fmt.Fprintf(stdout, "faults injected:       %d (releases %d, reaps %d, quarantined %d)\n",
			platform.FaultsInjected, rels, reaps, p.Quarantined)
	}
	fmt.Fprintf(stdout, "thumbnails processed:  %d\n", p.Processed)
	fmt.Fprintf(stdout, "measurements:          %d (missed %d, lobby zeros %d)\n",
		p.Extracted, p.Missed, p.Zero)
	fmt.Fprintf(stdout, "streamers located:     %d (unlocatable %d)\n\n", p.Located, p.Unlocated)

	analyses := p.Analyze(core.DefaultParams())
	groups := core.GroupByLocation(analyses)

	type row struct {
		name string
		n    int
		box  stats.Boxplot
	}
	var rows []row
	for key, as := range groups {
		if key.Loc.IsZero() {
			continue
		}
		dist := core.Distribution(as, core.DefaultParams())
		if len(dist) < 12 {
			continue
		}
		rows = append(rows, row{
			name: fmt.Sprintf("%s / %s", key.Loc, key.Game),
			n:    len(dist),
			box:  stats.NewBoxplot(dist),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].box.P50 < rows[j].box.P50 })
	fmt.Fprintln(stdout, "latency distributions per {location, game} (≥12 measurements):")
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-55s n=%-5d p5=%5.0f p25=%5.0f p50=%5.0f p75=%5.0f p95=%5.0f\n",
			r.name, r.n, r.box.P5, r.box.P25, r.box.P50, r.box.P75, r.box.P95)
	}
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "  (none with enough data; increase -streamers or -days)")
	}

	if o.metrics {
		fmt.Fprintln(stdout, "\n== metrics ==")
		if err := obs.Default.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
		}
	}
	return 0
}
