// Command teroexp regenerates the paper's tables and figures over the
// synthetic world. Each experiment prints one or more aligned text tables;
// DESIGN.md maps experiment IDs to the paper's artifacts.
//
// Usage:
//
//	teroexp -list
//	teroexp [-seed N] [-scale F] [-workers N] <experiment-id> [<experiment-id>...]
//	teroexp all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tero/internal/experiments"
	"tero/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the command's whole flag surface.
type options struct {
	list       bool
	seed       int64
	scale      float64
	workers    int
	debugAddr  string
	metrics    bool
	logLevel   string
	faults     float64
	faultSeed  int64
	storeExec  string
	workerExec string
	distFleets string
	cpuprofile string
	memprofile string
}

// register declares every flag on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.Int64Var(&o.seed, "seed", 1, "world seed")
	fs.Float64Var(&o.scale, "scale", 1, "workload scale factor (1 = default size)")
	fs.IntVar(&o.workers, "workers", 0,
		"experiment worker parallelism (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"serve /metrics and /debug/pprof/ on this address (e.g. localhost:6060 or :0)")
	fs.BoolVar(&o.metrics, "metrics", false,
		"append an end-of-run metrics report after the experiment tables")
	fs.StringVar(&o.logLevel, "log", "info",
		"log level: trace, debug, info, warn, error, off")
	fs.Float64Var(&o.faults, "faults", 0,
		"platform fault-injection rate for the pipeline experiments "+
			"(0 = off, 1 = calibrated default mix; the chaos experiment defaults to 1)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection schedule seed")
	fs.StringVar(&o.storeExec, "store-exec", "",
		"path to a terokv binary: the chaos-store experiment adds a leg that "+
			"runs the store as a child process and SIGKILLs it mid-run")
	fs.StringVar(&o.workerExec, "worker-exec", "",
		"path to a teroworker binary: the dist-scale experiment runs its fleets "+
			"as real child processes (empty = in-process workers over TCP)")
	fs.StringVar(&o.distFleets, "dist-fleets", "",
		"comma-separated fleet sizes for the dist-scale experiment (default 1,2,4,8)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "",
		"write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "",
		"write a heap profile to this file on exit")
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams (experiment legs that exec a child
// process hand it the real ones), and returns the exit code. It holds the
// defers, so the profiles are flushed and the debug server drained on every
// exit path, experiment failures included.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("teroexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
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

	if o.list {
		for _, e := range experiments.List() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e[0], e[1])
		}
		return 0
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "usage: teroexp [-seed N] [-scale F] [-workers N] <experiment-id>... | all | -list")
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiments.List() {
			ids = append(ids, e[0])
		}
	}
	var fleets []int
	if o.distFleets != "" {
		for _, f := range strings.Split(o.distFleets, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(stderr, "bad -dist-fleets entry %q\n", f)
				return 2
			}
			fleets = append(fleets, n)
		}
	}
	opts := experiments.Options{Seed: o.seed, Scale: o.scale, Concurrency: o.workers,
		Faults: o.faults, FaultSeed: o.faultSeed, StoreExec: o.storeExec,
		WorkerExec: o.workerExec, DistFleets: fleets}
	exit := 0
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", id, err)
			exit = 1
			continue
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t)
		}
		fmt.Fprintf(stdout, "[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	// The report is appended after all experiment output, so the tables
	// themselves stay byte-identical with or without -metrics.
	if o.metrics {
		fmt.Fprintln(stdout, "== metrics ==")
		if err := obs.Default.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
		}
	}
	return exit
}
