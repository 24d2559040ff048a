package download

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tero/internal/obs"
)

// TestRetryBackoffBoundedAndJittered pins the satellite fix: waits grow
// exponentially from RetryWait, never exceed 1.5×MaxRetryWait even for
// absurd attempt counts, and stay within the ±50% jitter envelope.
func TestRetryBackoffBoundedAndJittered(t *testing.T) {
	c := &APIClient{RetryWait: 100 * time.Millisecond, MaxRetryWait: 800 * time.Millisecond}
	for attempt := 0; attempt < 64; attempt++ {
		ideal := 100 * time.Millisecond << uint(attempt)
		if attempt > 3 || ideal > c.MaxRetryWait {
			ideal = c.MaxRetryWait
		}
		for trial := 0; trial < 20; trial++ {
			got := c.retryBackoff(attempt)
			if got < ideal/2 || got > ideal*3/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]",
					attempt, got, ideal/2, ideal*3/2)
			}
		}
	}
}

func TestRetryBackoffDefaults(t *testing.T) {
	// Zero-valued fields (struct-literal clients) still get a sane bounded
	// backoff instead of a zero sleep or unbounded growth.
	c := &APIClient{}
	for attempt := 0; attempt < 40; attempt++ {
		got := c.retryBackoff(attempt)
		if got <= 0 || got > 1200*time.Millisecond {
			t.Fatalf("attempt %d: default backoff %v out of range", attempt, got)
		}
	}
}

// TestGetJSONRetryMetrics pins that a 429 storm shows up in the retry
// counters and that the retry budget is honored.
func TestGetJSONRetryMetrics(t *testing.T) {
	obs.Reset()
	fails := 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"ok": true})
	}))
	defer srv.Close()

	c := NewAPIClient(srv.URL)
	c.RetryWait = time.Millisecond
	c.MaxRetryWait = 4 * time.Millisecond
	var out map[string]any
	if err := c.getJSON(srv.URL, &out); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default.Snapshot()
	if got := snap.Counters["download_api_429_total"]; got != 3 {
		t.Errorf("429 counter = %d, want 3", got)
	}
	if got := snap.Counters["download_api_retries_total"]; got != 3 {
		t.Errorf("retry counter = %d, want 3", got)
	}
	if got := snap.Counters["download_api_requests_total"]; got != 4 {
		t.Errorf("request counter = %d, want 4", got)
	}

	// A permanently throttled endpoint exhausts the bounded budget.
	obs.Reset()
	prevW := obs.SetLogOutput(nil) // expected warn line
	defer obs.SetLogOutput(prevW)
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusTooManyRequests)
	}))
	defer always.Close()
	c2 := NewAPIClient(always.URL)
	c2.RetryWait = time.Millisecond
	c2.MaxRetryWait = 2 * time.Millisecond
	c2.MaxRetries = 5
	if err := c2.getJSON(always.URL, &out); err == nil {
		t.Fatal("expected retry exhaustion error")
	}
	if got := obs.Default.Snapshot().Counters["download_api_retry_exhausted_total"]; got != 1 {
		t.Errorf("exhausted counter = %d, want 1", got)
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
