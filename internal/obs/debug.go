package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// debugRoute is one mounted debug endpoint: its mux pattern, a one-line
// description for the root index, and the handler.
type debugRoute struct {
	pattern string
	desc    string
	h       http.Handler
	noStore bool // responses must never be cached (live data)
}

// The extension registry: packages that cannot be imported by obs (they
// import obs themselves, e.g. obs/trace) mount their debug endpoints here
// at init time, and every subsequently started DebugServer serves them.
var (
	debugExtraMu sync.Mutex
	debugExtra   []debugRoute
)

// RegisterDebug mounts a handler on every DebugServer started after this
// call. The description appears in the root index; live-data endpoints
// (metrics, traces) should pass noStore so intermediaries never serve a
// stale scrape.
func RegisterDebug(pattern, desc string, h http.Handler, noStore bool) {
	debugExtraMu.Lock()
	defer debugExtraMu.Unlock()
	for i, r := range debugExtra {
		if r.pattern == pattern { // re-registration replaces (tests)
			debugExtra[i] = debugRoute{pattern, desc, h, noStore}
			return
		}
	}
	debugExtra = append(debugExtra, debugRoute{pattern, desc, h, noStore})
}

// noStoreHandler stamps Cache-Control: no-store before the inner handler
// writes: metric scrapes and trace dumps are live data, and a cached copy
// is worse than none.
func noStoreHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		h.ServeHTTP(w, r)
	})
}

// DebugServer is the optional debug HTTP endpoint: /metrics renders the
// Default registry as text, /debug/pprof/ serves the standard profiling
// handlers, and / lists every mounted route — including routes added via
// RegisterDebug (e.g. /debug/traces from obs/trace) — so the index never
// goes stale as endpoints are added. It runs on its own mux so enabling
// profiling never touches http.DefaultServeMux.
type DebugServer struct {
	// Addr is the resolved listen address (useful with ":0").
	Addr string

	ln     net.Listener
	srv    *http.Server
	routes []debugRoute
}

// ServeDebug starts a debug server on addr (e.g. "localhost:6060" or ":0")
// and returns once it is listening. Callers should Shutdown it on exit.
func ServeDebug(addr string) (*DebugServer, error) {
	return ServeDebugRegistry(addr, Default)
}

// ServeDebugRegistry is ServeDebug against an explicit registry.
func ServeDebugRegistry(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}

	routes := []debugRoute{
		{"/metrics", "metrics registry text dump", MetricsHandler(reg), true},
		{"/debug/pprof/", "runtime profiling (pprof)", http.HandlerFunc(pprof.Index), false},
	}
	debugExtraMu.Lock()
	routes = append(routes, debugExtra...)
	debugExtraMu.Unlock()
	sort.SliceStable(routes, func(i, j int) bool { return routes[i].pattern < routes[j].pattern })

	mux := http.NewServeMux()
	for _, rt := range routes {
		h := rt.h
		if rt.noStore {
			h = noStoreHandler(h)
		}
		mux.Handle(rt.pattern, h)
	}
	// The non-index pprof handlers are plumbing under /debug/pprof/, not
	// separate index entries.
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// Root index rendered from the route table itself, so new registrations
	// appear without touching this file.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "tero debug server\n")
		for _, rt := range routes {
			fmt.Fprintf(w, "  %-18s %s\n", rt.pattern, rt.desc)
		}
	})

	d := &DebugServer{
		Addr:   ln.Addr().String(),
		ln:     ln,
		srv:    &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		routes: routes,
	}
	go d.srv.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Shutdown
	L("obs").Info("debug server listening", "addr", d.Addr)
	return d, nil
}

// Shutdown gracefully shuts the server down: the listener closes right away
// (no new connections), in-flight requests — a /metrics scrape or a pprof
// profile mid-collection — run to completion, and the call returns when the
// server is fully drained or ctx expires (in-flight requests are then cut
// off, ctx.Err() is returned).
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if d == nil || d.srv == nil {
		return nil
	}
	return d.srv.Shutdown(ctx)
}

// ShutdownTimeout is Shutdown with a deadline instead of a context, for
// callers without one (typically a main's deferred cleanup).
func (d *DebugServer) ShutdownTimeout(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return d.Shutdown(ctx)
}

// MetricsHandler serves a registry's WriteText dump.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		reg.WriteText(w) //nolint:errcheck — nothing to do about a dead client
	})
}
