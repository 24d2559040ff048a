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
// Both limits are runtime-adjustable (SetLimits), so a brownout experiment
// can sweep offered load against a fixed knee, and an operator can tighten
// a live server without restarting it. A zero limit disables that check;
// a nil *Admission (the default on Server) admits everything.
type Admission struct {
	maxInFlight atomic.Int64 // 0 = unlimited
	inFlight    atomic.Int64

	mu     sync.Mutex // guards the token bucket
	rate   float64    // tokens per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

var gInFlight = obs.G("serve_inflight_requests")

// NewAdmission returns a gate with the given limits. maxInFlight <= 0 and
// rate <= 0 each disable that check; burst <= 0 defaults to rate (a one-
// second burst allowance).
func NewAdmission(maxInFlight int, rate, burst float64) *Admission {
	a := &Admission{}
	a.SetLimits(maxInFlight, rate, burst)
	return a
}

// SetLimits replaces both limits atomically enough for serving: requests in
// flight keep their slots, new requests see the new limits.
func (a *Admission) SetLimits(maxInFlight int, rate, burst float64) {
	a.maxInFlight.Store(int64(maxInFlight))
	a.mu.Lock()
	a.rate = rate
	if burst <= 0 {
		burst = rate
	}
	a.burst = burst
	a.tokens = burst // a fresh limit starts with a full bucket
	a.last = time.Now()
	a.mu.Unlock()
}

// InFlight returns the number of currently admitted requests.
func (a *Admission) InFlight() int { return int(a.inFlight.Load()) }

// Admit tries to take one admission slot. On success it returns a non-nil
// release func the caller must invoke when the request finishes. On
// rejection it returns (nil, false) and the request must be shed.
func (a *Admission) Admit() (release func(), ok bool) {
	if m := a.maxInFlight.Load(); m > 0 {
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
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rate <= 0 {
		return true
	}
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
