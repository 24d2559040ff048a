package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tero/internal/obs"
)

// Admission is the overload gate in front of the serving mux: a concurrency
// limit (in-flight requests) plus an optional token bucket (sustained
// request rate). Past either limit the server *sheds* — an immediate
// 503 with Retry-After — instead of queueing until latency collapses.
// Shedding turns overload into a measured, bounded regime: throughput
// stays at the knee, p99 of admitted requests stays flat, and the error
// rate is the excess offered load, all visible as serve_shed_total{route}.
//
// Both limits are fixed at construction; to change them, install a new
// gate with Server.SetAdmission. A zero limit disables that check; a nil
// *Admission (the default on Server) admits everything.
type Admission struct {
	maxInFlight int64   // 0 = unlimited
	rate        float64 // tokens per second; 0 = unlimited
	burst       float64
	inFlight    atomic.Int64

	mu     sync.Mutex // guards the token bucket's fill
	tokens float64
	last   time.Time
}

var gInFlight = obs.G("serve_inflight_requests")

// NewAdmission returns a gate with the given limits. maxInFlight <= 0 and
// rate <= 0 each disable that check; burst <= 0 defaults to rate (a one-
// second burst allowance). The bucket starts full.
func NewAdmission(maxInFlight int, rate, burst float64) *Admission {
	if burst <= 0 {
		burst = rate
	}
	return &Admission{
		maxInFlight: int64(maxInFlight),
		rate:        rate,
		burst:       burst,
		tokens:      burst,
		last:        time.Now(),
	}
}

// InFlight returns the number of currently admitted requests.
func (a *Admission) InFlight() int { return int(a.inFlight.Load()) }

// Admit tries to take one admission slot. On success it returns a non-nil
// release func the caller must invoke when the request finishes. On
// rejection it returns (nil, false) and the request must be shed.
func (a *Admission) Admit() (release func(), ok bool) {
	if m := a.maxInFlight; m > 0 {
		// Take a slot only if one is free: adding first and backing out
		// would let InFlight read above the limit in between.
		for {
			cur := a.inFlight.Load()
			if cur >= m {
				return nil, false
			}
			if a.inFlight.CompareAndSwap(cur, cur+1) {
				gInFlight.Set(float64(cur + 1))
				break
			}
		}
		release = func() {
			gInFlight.Set(float64(a.inFlight.Add(-1)))
		}
	}
	if !a.takeToken() {
		if release != nil {
			release()
		}
		return nil, false
	}
	if release == nil {
		release = func() {}
	}
	return release, true
}

// takeToken draws one token from the bucket, refilling by elapsed time.
func (a *Admission) takeToken() bool {
	if a.rate <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	a.tokens += now.Sub(a.last).Seconds() * a.rate
	a.last = now
	if a.tokens > a.burst {
		a.tokens = a.burst
	}
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}

// admissionExempt reports whether a path bypasses the gate: liveness,
// readiness and metrics must answer even while the server is browning out,
// or the operator flying the overload is blind.
func admissionExempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return false
}

// retryAfterSecs is the Retry-After value of every shed, whole seconds.
const retryAfterSecs = "1"

// shed writes the 503 + Retry-After overload response and counts it.
func shed(w http.ResponseWriter, route string) {
	handlesFor(route).shed.Inc()
	w.Header().Set("Retry-After", retryAfterSecs)
	writeError(w, http.StatusServiceUnavailable, "overloaded, retry after %ss", retryAfterSecs)
}
