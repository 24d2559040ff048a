package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestAdmissionInFlight exercises the concurrency limit directly: slots are
// taken and released, and the limit is exact.
func TestAdmissionInFlight(t *testing.T) {
	a := NewAdmission(2, 0, 0)
	r1, ok := a.Admit()
	if !ok {
		t.Fatal("first admit rejected")
	}
	r2, ok := a.Admit()
	if !ok {
		t.Fatal("second admit rejected")
	}
	if _, ok := a.Admit(); ok {
		t.Fatal("third admit allowed past maxInFlight=2")
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	r1()
	if r3, ok := a.Admit(); !ok {
		t.Fatal("admit after release rejected")
	} else {
		r3()
	}
	r2()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after releases = %d, want 0", got)
	}
}

// TestAdmissionTokenBucket: a burst of `burst` requests passes, the next is
// rejected, and rejections do not leak in-flight slots.
func TestAdmissionTokenBucket(t *testing.T) {
	a := NewAdmission(100, 1, 3) // 1/s refill is effectively zero within the test
	var releases []func()
	for i := 0; i < 3; i++ {
		r, ok := a.Admit()
		if !ok {
			t.Fatalf("admit %d rejected inside burst", i)
		}
		releases = append(releases, r)
	}
	if _, ok := a.Admit(); ok {
		t.Fatal("admit allowed past exhausted bucket")
	}
	// The rejected request must have released its in-flight slot.
	if got := a.InFlight(); got != 3 {
		t.Fatalf("InFlight after bucket rejection = %d, want 3", got)
	}
	for _, r := range releases {
		r()
	}
}

// TestAdmissionConcurrent hammers Admit/release from many goroutines under
// -race and checks the counter returns to zero.
func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(8, 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if release, ok := a.Admit(); ok {
					if a.InFlight() > 8 {
						t.Error("in-flight exceeded limit")
					}
					release()
				}
			}
		}()
	}
	wg.Wait()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after all releases = %d, want 0", got)
	}
}

// TestServerSheds drives the HTTP layer: with a zero-token gate installed,
// API routes shed 503 + Retry-After while health and metrics stay exempt,
// and serve_shed_total counts the sheds.
func TestServerSheds(t *testing.T) {
	s := testServer(t)
	a := NewAdmission(0, 0.000001, 0) // bucket with (effectively) no tokens
	// Drain the single rounding-granted token, if any.
	a.mu.Lock()
	a.tokens = 0
	a.mu.Unlock()
	s.SetAdmission(a)
	shedBefore := handlesFor("latency").shed.Value() // process-global: other tests and -count=N add to it

	w := do(t, s, "/v1/latency?location="+milanKey+"&game=Fortnite")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("gated latency: status %d, want 503", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	// Exempt routes keep answering during the brownout.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if w := do(t, s, path); w.Code == http.StatusServiceUnavailable {
			t.Errorf("%s shed during brownout; must be exempt", path)
		}
	}

	// The shed was counted against its route, once, and /metrics shows it.
	want := fmt.Sprintf("serve_shed_total{route=latency} %d\n", shedBefore+1)
	if m := do(t, s, "/metrics"); !strings.Contains(m.Body.String(), want) {
		t.Errorf("metrics lack %q:\n%s", want, m.Body.String())
	}

	// Removing the gate restores service.
	s.SetAdmission(nil)
	if w := do(t, s, "/v1/latency?location="+milanKey+"&game=Fortnite"); w.Code != http.StatusOK {
		t.Errorf("ungated latency: status %d, want 200", w.Code)
	}
}

// TestLoadGenCountsSheds pins the LoadGen overload contract: shed responses
// are recorded as sheds (not server errors) and the run completes its full
// request budget. A near-empty token bucket sheds deterministically —
// unlike an in-flight cap, which needs scheduler-dependent overlap.
func TestLoadGenCountsSheds(t *testing.T) {
	s := testServer(t)
	s.SetAdmission(NewAdmission(0, 1000, 1)) // ~everything past the bucket sheds

	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	lg := &LoadGen{
		BaseURL:           ts.URL,
		Clients:           8,
		RequestsPerClient: 40,
		ShedBackoffCap:    1, // 1ns: keep the test fast
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Requests != 8*40 {
		t.Fatalf("Requests = %d, want %d (shed must not end the run)", rep.Requests, 8*40)
	}
	if rep.ServerErrors != 0 {
		t.Errorf("ServerErrors = %d, want 0 (sheds are not server errors)", rep.ServerErrors)
	}
	if rep.Shed == 0 {
		t.Error("Shed = 0, want > 0 (320 requests against a ~1-token bucket)")
	}
	if rep.TransportErrs != 0 || rep.ClientErrors != 0 {
		t.Errorf("unexpected errors: transport %d, client %d", rep.TransportErrs, rep.ClientErrors)
	}
	if rep.OK == 0 {
		t.Error("OK = 0: gate admitted nothing")
	}
}
