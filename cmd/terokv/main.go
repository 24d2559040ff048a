// Command terokv runs a standalone Tero kvstore server: the coordination
// store (App. A/B uses Redis) as its own process, optionally durable
// (append-only file + snapshots under -dir): a restart on the same -dir
// recovers the state. The chaos-store experiment's SIGKILL leg and
// scripts/check.sh run it as the store that gets killed and recovered.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tero/internal/kvstore"
	"tero/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is the command's whole flag surface.
type options struct {
	addr      string
	dir       string
	debugAddr string
	logLevel  string
}

// register declares every flag on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address")
	fs.StringVar(&o.dir, "dir", "",
		"persistence directory, every write fsynced (empty = in-memory only)")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"serve /metrics and /debug/pprof/ on this address")
	fs.StringVar(&o.logLevel, "log", "info",
		"log level: trace, debug, info, warn, error, off")
}

// run is the whole command behind main: it parses args on its own flag
// set, writes only to the given streams, serves until ctx is cancelled (main
// cancels it on SIGINT/SIGTERM) and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("terokv", flag.ContinueOnError)
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
		defer dbg.ShutdownTimeout(5 * time.Second) //nolint:errcheck
		fmt.Fprintf(stdout, "debug server listening on http://%s\n", dbg.Addr)
	}

	var store *kvstore.Store
	if o.dir != "" {
		var err error
		store, err = kvstore.Open(o.dir)
		if err != nil {
			fmt.Fprintf(stderr, "open %s: %v\n", o.dir, err)
			return 1
		}
		defer store.Close()
		fmt.Fprintf(stdout, "terokv durable at %s (%d keys recovered)\n",
			o.dir, store.Len())
	} else {
		store = kvstore.New()
	}

	srv, err := kvstore.Serve(store, o.addr)
	if err != nil {
		fmt.Fprintf(stderr, "listen %s: %v\n", o.addr, err)
		return 1
	}
	defer srv.Close()
	// The announcement line the chaos-store exec leg and check.sh parse.
	fmt.Fprintf(stdout, "terokv listening at %s\n", srv.Addr())

	// Run until interrupted; SIGKILL (the chaos path) skips all of this,
	// which is the point — recovery must work without a goodbye.
	<-ctx.Done()
	fmt.Fprintln(stdout, "terokv shutting down")
	return 0
}
