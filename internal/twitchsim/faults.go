package twitchsim

import (
	"encoding/binary"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"tero/internal/obs"
)

// RouteFaults are the connection-level fault probabilities for one route
// class (the developer API or the thumbnail CDN).
type RouteFaults struct {
	// ErrProb is the probability of answering 500 Internal Server Error.
	ErrProb float64
	// StallProb is the probability of stalling the request for
	// FaultOptions.Stall before serving it (or until the client hangs up,
	// whichever comes first).
	StallProb float64
	// ResetProb is the probability of dropping the connection mid-request
	// (the client observes a reset / unexpected EOF).
	ResetProb float64
}

func (r RouteFaults) enabled() bool {
	return r.ErrProb > 0 || r.StallProb > 0 || r.ResetProb > 0
}

// FaultOptions configures the platform's fault-injection layer. All
// decisions are deterministic: each (kind, request-URI, per-URI request
// ordinal) triple hashes with Seed to one roll, so a pinned seed replays the
// exact same fault schedule regardless of wall-clock time or goroutine
// interleaving (each streamer's thumbnail URI is polled by a single
// downloader, so per-URI ordinals are stable across concurrency levels).
//
// The zero value disables injection entirely.
type FaultOptions struct {
	// Seed selects the deterministic fault schedule.
	Seed int64
	// Stall is how long a stalled request hangs before being served; the
	// handler returns early if the client disconnects first. 0 means hang
	// until the client gives up (forces a client-side timeout).
	Stall time.Duration

	// API and CDN are the connection-level faults of the /helix/* and
	// /thumb/* routes. Admin, offline and social routes are never faulted.
	API RouteFaults
	CDN RouteFaults

	// Thumbnail-body faults (GET /thumb/ only). Truncation cuts the body
	// short of the declared Content-Length; corruption flips bits after the
	// digest header is computed, so the body contradicts X-Thumbnail-Digest,
	// and strikes only a response that is neither truncated nor lacks its
	// seq header.
	TruncateProb float64
	CorruptProb  float64
	// Header faults (HEAD and GET /thumb/): drop X-Thumbnail-Seq or
	// X-Next-Thumbnail from the response.
	DropSeqProb  float64
	DropNextProb float64
}

// Enabled reports whether any fault has a non-zero probability.
func (f FaultOptions) Enabled() bool {
	return f.API.enabled() || f.CDN.enabled() ||
		f.TruncateProb > 0 || f.CorruptProb > 0 ||
		f.DropSeqProb > 0 || f.DropNextProb > 0
}

// DefaultFaultOptions returns a calibrated recoverable fault mix: every kind
// occurs, none often enough that a downloader with default retry budgets
// loses a thumbnail window.
func DefaultFaultOptions(seed int64) FaultOptions {
	return FaultOptions{
		Seed:  seed,
		Stall: 250 * time.Millisecond,
		API:   RouteFaults{ErrProb: 0.04, StallProb: 0.02, ResetProb: 0.02},
		CDN:   RouteFaults{ErrProb: 0.05, StallProb: 0.02, ResetProb: 0.03},

		TruncateProb: 0.04,
		CorruptProb:  0.03,
		DropSeqProb:  0.03,
		DropNextProb: 0.03,
	}
}

// ScaledFaults returns DefaultFaultOptions with every probability multiplied
// by rate (clamped to [0, 0.9]). rate 0 disables injection; 1 is the
// calibrated default mix.
func ScaledFaults(seed int64, rate float64) FaultOptions {
	f := DefaultFaultOptions(seed)
	scale := func(p float64) float64 {
		p *= rate
		if p < 0 {
			p = 0
		}
		if p > 0.9 {
			p = 0.9
		}
		return p
	}
	for _, r := range []*RouteFaults{&f.API, &f.CDN} {
		r.ErrProb = scale(r.ErrProb)
		r.StallProb = scale(r.StallProb)
		r.ResetProb = scale(r.ResetProb)
	}
	f.TruncateProb = scale(f.TruncateProb)
	f.CorruptProb = scale(f.CorruptProb)
	f.DropSeqProb = scale(f.DropSeqProb)
	f.DropNextProb = scale(f.DropNextProb)
	return f
}

// faultInjector evaluates the deterministic fault schedule. Per-URI request
// ordinals are the only mutable state, guarded by mu.
type faultInjector struct {
	opt FaultOptions

	mu       sync.Mutex
	ordinals map[string]uint64
}

func newFaultInjector(opt FaultOptions) *faultInjector {
	return &faultInjector{opt: opt, ordinals: make(map[string]uint64)}
}

// next assigns the request its per-URI ordinal.
func (fi *faultInjector) next(uri string) uint64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	n := fi.ordinals[uri]
	fi.ordinals[uri] = n + 1
	return n
}

// roll returns a deterministic uniform value in [0, 1) for one fault kind of
// one request.
func (fi *faultInjector) roll(kind, uri string, ordinal uint64) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(fi.opt.Seed))
	h.Write(b[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(uri))
	binary.LittleEndian.PutUint64(b[:], ordinal)
	h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// countFault records one injected fault in the platform counters and the
// obs registry.
func (p *Platform) countFault(kind string) {
	p.mu.Lock()
	p.FaultsInjected++
	p.mu.Unlock()
	obs.C(obs.Lbl("twitchsim_faults_injected_total", "kind", kind)).Inc()
}

// reqFaults is the fault decision for one in-flight request.
type reqFaults struct {
	serverErr bool
	stall     bool
	reset     bool
	truncate  bool
	corrupt   bool
	dropSeq   bool
	dropNext  bool
}

// decide draws every applicable roll for one request up front, so the
// decision depends only on (seed, uri, ordinal) — never on handler timing.
func (fi *faultInjector) decide(route RouteFaults, uri string, cdnBody bool) reqFaults {
	n := fi.next(uri)
	d := reqFaults{
		serverErr: route.ErrProb > 0 && fi.roll("500", uri, n) < route.ErrProb,
		stall:     route.StallProb > 0 && fi.roll("stall", uri, n) < route.StallProb,
		reset:     route.ResetProb > 0 && fi.roll("reset", uri, n) < route.ResetProb,
	}
	if cdnBody {
		d.truncate = fi.opt.TruncateProb > 0 && fi.roll("truncate", uri, n) < fi.opt.TruncateProb
		d.dropSeq = fi.opt.DropSeqProb > 0 && fi.roll("drop_seq", uri, n) < fi.opt.DropSeqProb
		d.dropNext = fi.opt.DropNextProb > 0 && fi.roll("drop_next", uri, n) < fi.opt.DropNextProb
		// Only a body sent whole and with its seq header is corrupted, so
		// every corruption reaches the downloader's digest check: a
		// truncated body fails its read first, and a GET without a seq is
		// refused before its body is read.
		d.corrupt = !d.truncate && !d.dropSeq &&
			fi.opt.CorruptProb > 0 && fi.roll("corrupt", uri, n) < fi.opt.CorruptProb
	}
	return d
}

// faultCtxKey carries the request's body/header fault decision from the
// middleware to handleThumb.
type faultCtxKey struct{}

// injectFaults is the fault middleware: it sits inside the instrumentation
// middleware, so injected 500s are still counted per route, and decides
// connection-level faults for the API and CDN routes. Body and header
// faults for /thumb/ are decided here too and handed to handleThumb via the
// request context.
func (p *Platform) injectFaults(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fi := p.faults.Load()
		if fi == nil {
			next.ServeHTTP(w, r)
			return
		}
		var route RouteFaults
		var prefix string
		cdnBody := false
		switch routeOf(r.URL.Path) {
		case "helix_streams", "helix_users":
			route, prefix = fi.opt.API, "api"
		case "cdn":
			if r.URL.Path == "/offline.pgm" {
				next.ServeHTTP(w, r)
				return
			}
			route, prefix, cdnBody = fi.opt.CDN, "cdn", true
		default:
			// Social routes are never faulted: social faults belong to a
			// future location-module fault model.
			next.ServeHTTP(w, r)
			return
		}
		d := fi.decide(route, r.URL.RequestURI(), cdnBody)
		if d.stall {
			p.countFault(prefix + "_stall")
			var wait <-chan time.Time
			if fi.opt.Stall > 0 {
				t := time.NewTimer(fi.opt.Stall)
				defer t.Stop()
				wait = t.C
			}
			select {
			case <-wait: // nil channel when Stall == 0: wait for the client
			case <-r.Context().Done():
				return
			}
		}
		if d.reset {
			p.countFault(prefix + "_reset")
			// ErrAbortHandler aborts the response mid-flight: the client
			// observes a dropped connection, net/http suppresses the panic
			// log.
			panic(http.ErrAbortHandler)
		}
		if d.serverErr {
			p.countFault(prefix + "_500")
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		if cdnBody && (d.truncate || d.corrupt || d.dropSeq || d.dropNext) {
			r = r.WithContext(contextWithFaults(r.Context(), d))
		}
		next.ServeHTTP(w, r)
	})
}
