package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ex_seconds", []float64{1, 10})
	h.ObserveExemplar(0.5, 0xabc)
	h.ObserveExemplar(5, 0xdef)
	h.ObserveExemplar(100, 0x123)
	h.ObserveExemplar(0.7, 0) // ref 0: plain observation, no exemplar overwrite
	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplars = %d, want 3", len(ex))
	}
	want := map[float64]uint64{1: 0xabc, 10: 0xdef}
	for _, e := range ex {
		if w, ok := want[e.LE]; ok && e.Ref != w {
			t.Errorf("bucket le=%v ref %x, want %x", e.LE, e.Ref, w)
		}
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		"exemplar ex_seconds le=1 trace=0000000000000abc",
		"exemplar ex_seconds le=+Inf trace=0000000000000123",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("WriteText missing %q in:\n%s", line, out)
		}
	}
}

func TestHistogramCountLE(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("le_seconds", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.9, 5, 50, 500} {
		h.Observe(v)
	}
	for _, tc := range []struct {
		bound float64
		want  int64
	}{{1, 2}, {10, 3}, {100, 4}, {1e9, 4}} { // +Inf overflow never counts
		if got := h.CountLE(tc.bound); got != tc.want {
			t.Errorf("CountLE(%v) = %d, want %d", tc.bound, got, tc.want)
		}
	}
}

func TestRegisterDebugRoutesAndNoStore(t *testing.T) {
	reg := NewRegistry()
	prevW := SetLogOutput(io.Discard)
	defer SetLogOutput(prevW)

	RegisterDebug("/debug/trtest", "trace-test route",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("trtest-body")) //nolint:errcheck
		}), true)
	srv, err := ServeDebugRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	routes := strings.Join(srv.Routes(), " ")
	for _, want := range []string{"/metrics", "/debug/pprof/", "/debug/trtest"} {
		if !strings.Contains(routes, want) {
			t.Errorf("Routes() missing %s (got %s)", want, routes)
		}
	}

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Cache-Control")
	}
	// Root index is rendered from the registrations.
	if _, body, _ := get("/"); !strings.Contains(body, "/debug/trtest") ||
		!strings.Contains(body, "trace-test route") ||
		!strings.Contains(body, "/metrics") {
		t.Errorf("index missing registered route:\n%s", body)
	}
	if code, body, cc := get("/debug/trtest"); code != 200 ||
		body != "trtest-body" || cc != "no-store" {
		t.Errorf("registered route: code=%d body=%q cache-control=%q", code, body, cc)
	}
	if _, _, cc := get("/metrics"); cc != "no-store" {
		t.Errorf("/metrics cache-control = %q, want no-store", cc)
	}
}
