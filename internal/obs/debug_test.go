package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

func TestDebugServerServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug_test_total").Add(3)
	prevW := SetLogOutput(io.Discard)
	defer SetLogOutput(prevW)

	srv, err := ServeDebugRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "counter debug_test_total 3") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d body %d bytes", code, len(body))
	}
	code, _ = get("/nope")
	if code != http.StatusNotFound {
		t.Fatalf("/nope: code=%d, want 404", code)
	}
}

func TestDebugServerGracefulShutdown(t *testing.T) {
	reg := NewRegistry()
	prevW := SetLogOutput(io.Discard)
	defer SetLogOutput(prevW)

	srv, err := ServeDebugRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}

	// An in-flight request started before Shutdown must complete.
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		resp, err := http.Get("http://" + srv.Addr + "/metrics")
		if err != nil {
			done <- err
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("in-flight scrape: status %d", resp.StatusCode)
			return
		}
		done <- nil
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		// The request may have raced the listener close; a connection error
		// is acceptable, a non-200 on an accepted request is not.
		var urlErr *url.Error
		if !errors.As(err, &urlErr) {
			t.Fatalf("in-flight request: %v", err)
		}
	}

	// The listener must be freed: new connections are refused.
	if _, err := net.DialTimeout("tcp", srv.Addr, time.Second); err == nil {
		t.Fatal("listener still accepting connections after Shutdown")
	}
	// Shutdown and Close are idempotent afterwards (including on nil).
	if err := srv.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		t.Fatalf("second Shutdown: %v", err)
	}
	var nilSrv *DebugServer
	if err := nilSrv.Shutdown(ctx); err != nil {
		t.Fatalf("nil Shutdown: %v", err)
	}
}

// Routes returns the mounted route patterns in index order.
func (d *DebugServer) Routes() []string {
	out := make([]string, len(d.routes))
	for i, rt := range d.routes {
		out[i] = rt.pattern
	}
	return out
}

// Close shuts the server down immediately, dropping in-flight requests.
func (d *DebugServer) Close() error {
	if d == nil || d.srv == nil {
		return nil
	}
	return d.srv.Close()
}
