package download

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tero/internal/obs"
)

// TestGetJSONRetryMetrics pins that a 503 storm shows up in the retry
// counters, that the retry budget is honored, and that a 429 is not retried.
func TestGetJSONRetryMetrics(t *testing.T) {
	obs.Reset()
	fails := 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"ok": true})
	}))
	defer srv.Close()

	c := NewAPIClient(srv.URL)
	c.RetryWait = time.Millisecond
	var out map[string]any
	if err := c.getJSON(srv.URL, &out); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default.Snapshot()
	if got := snap.Counters["download_api_retries_total"]; got != 3 {
		t.Errorf("retry counter = %d, want 3", got)
	}
	if got := snap.Counters["download_api_requests_total"]; got != 4 {
		t.Errorf("request counter = %d, want 4", got)
	}

	// A permanently failing endpoint exhausts the bounded budget.
	obs.Reset()
	prevW := obs.SetLogOutput(nil) // expected warn line
	defer obs.SetLogOutput(prevW)
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer always.Close()
	c2 := NewAPIClient(always.URL)
	c2.RetryWait = time.Millisecond
	c2.MaxRetries = 5
	if err := c2.getJSON(always.URL, &out); err == nil {
		t.Fatal("expected retry exhaustion error")
	}
	snap = obs.Default.Snapshot()
	if got := snap.Counters["download_api_retry_exhausted_total"]; got != 1 {
		t.Errorf("exhausted counter = %d, want 1", got)
	}
	if got := snap.Counters["download_api_requests_total"]; got != 6 {
		t.Errorf("request counter = %d, want 6", got)
	}

	// A 429 is an answer: one request, no retry.
	obs.Reset()
	limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer limited.Close()
	if err := NewAPIClient(limited.URL).getJSON(limited.URL, &out); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("429: %v, want ErrRateLimited", err)
	}
	snap = obs.Default.Snapshot()
	for name, want := range map[string]int64{
		"download_api_requests_total": 1,
		"download_api_429_total":      1,
		"download_api_retries_total":  0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("after a 429: %s = %d, want %d", name, got, want)
		}
	}
}

// TestRetryPauseBaseAndCapAgree pins the in-place fetch retry pause as a
// pure function of the attempt: it doubles from the effective base and stops
// at 16 times that same base — also for RetryWait 0, whose 25 ms fallback
// used to have a cap of 16×0 and therefore never backed off.
func TestRetryPauseBaseAndCapAgree(t *testing.T) {
	for _, c := range []struct{ set, base time.Duration }{
		{0, 25 * time.Millisecond},
		{2 * time.Millisecond, 2 * time.Millisecond},
		{25 * time.Millisecond, 25 * time.Millisecond},
	} {
		for attempt, mult := range []time.Duration{0, 1, 2, 4, 8, 16, 16, 16, 16} {
			if attempt == 0 {
				continue // attempt 0 is the first try: no pause
			}
			if got, want := retryPause(c.set, attempt), mult*c.base; got != want {
				t.Errorf("RetryWait %v, retry %d: pause %v, want %v", c.set, attempt, got, want)
			}
		}
	}
}
