// Command teroworker is one distributed-ingest worker: it connects to the
// coordinator's kvstore address (key-value protocol + object buckets on one
// wire), registers with a real-time heartbeat, and works lockstep rounds —
// claim streamers from the shared queue, fetch their thumbnails from the
// platform CDN, run OCR extraction, push results — until the coordinator
// signals the end of the run. Run N of these against one `tero
// -distributed N` coordinator; see README "Running distributed".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"tero/internal/dist"
	"tero/internal/obs"
	"tero/internal/obs/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is the command's whole flag surface.
type options struct {
	store     string
	id        string
	logLevel  string
	trace     bool
	traceSeed int64
}

// register declares every flag on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.store, "store", "",
		"kvstore address of the coordinator (required), e.g. 127.0.0.1:7700")
	fs.StringVar(&o.id, "id", "",
		"worker ID, unique in the fleet (default <hostname>-<pid>); its downloader is <id>:dl0")
	fs.StringVar(&o.logLevel, "log", "warn", "log level: trace, debug, info, warn, error, off")
	fs.BoolVar(&o.trace, "trace", false, "record tail-sampled traces in this worker")
	fs.Int64Var(&o.traceSeed, "trace-seed", 1, "trace ID seed when -trace is set")
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams, works rounds until the coordinator
// ends the run or ctx is cancelled (main cancels it on SIGINT/SIGTERM; the
// worker then stops dead, as if killed, and the coordinator requeues its
// claims) and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("teroworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if o.store == "" {
		fmt.Fprintln(stderr, "teroworker: -store is required")
		return 2
	}
	if lv, ok := obs.ParseLevel(o.logLevel); ok {
		obs.SetLogLevel(lv)
	} else {
		fmt.Fprintf(stderr, "unknown -log level %q\n", o.logLevel)
		return 2
	}
	if o.id == "" {
		// The roster is a hash keyed by ID: two workers that share one are
		// one entry to the coordinator. A pid alone repeats across hosts.
		host, err := os.Hostname()
		if err != nil {
			fmt.Fprintf(stderr, "teroworker: no hostname for a default -id: %v\n", err)
			return 1
		}
		o.id = host + "-" + strconv.Itoa(os.Getpid())
	}
	if o.trace {
		trace.Enable(uint64(o.traceSeed))
	}

	fmt.Fprintf(stdout, "teroworker %s joining %s\n", o.id, o.store)
	err := dist.RunWorker(dist.WorkerConfig{ID: o.id, StoreAddr: o.store, Halt: ctx.Done()})
	if err != nil {
		fmt.Fprintf(stderr, "teroworker %s: %v\n", o.id, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "teroworker %s: interrupted\n", o.id)
		return 1
	}
	fmt.Fprintf(stdout, "teroworker %s done\n", o.id)
	return 0
}
