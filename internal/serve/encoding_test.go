package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// fixtureEntries returns every entry of the standard test snapshot.
func fixtureEntries(t *testing.T) []*Entry {
	t.Helper()
	snap := testBuilder().Build()
	if len(snap.Entries) == 0 {
		t.Fatal("fixture produced no entries")
	}
	return snap.Entries
}

// TestBinaryNegotiation pins the retired binary representation's fallback:
// a request that Accepts it gets exactly the answer a request with no
// Accept header gets — JSON body, Content-Type and ETag — with no Vary,
// and that ETag revalidates either way.
func TestBinaryNegotiation(t *testing.T) {
	s := testServer(t)
	path := "/v1/latency?location=" + milanKey + "&game=Fortnite"

	plain := do(t, s, path)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain: status %d", plain.Code)
	}
	bin := do(t, s, path, "Accept", ContentTypeBinary)
	if bin.Code != http.StatusOK {
		t.Fatalf("Accept %s: status %d", ContentTypeBinary, bin.Code)
	}
	if got, want := bin.Header().Get("Content-Type"), contentTypeJSON; got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
	if bin.Body.String() != plain.Body.String() {
		t.Error("body differs from the plain request's")
	}
	tag := plain.Header().Get("ETag")
	if got := bin.Header().Get("ETag"); got != tag {
		t.Errorf("ETag = %q, want the plain request's %q", got, tag)
	}

	w304 := do(t, s, path, "Accept", ContentTypeBinary, "If-None-Match", tag)
	if w304.Code != http.StatusNotModified || w304.Body.Len() != 0 {
		t.Errorf("revalidate: status %d, body %d bytes", w304.Code, w304.Body.Len())
	}
	for name, w := range map[string]http.Header{
		"plain": plain.Header(), "Accept binary": bin.Header(), "304": w304.Header(),
	} {
		if v, ok := w["Vary"]; ok {
			t.Errorf("%s: Vary = %q, want none", name, v)
		}
	}
}

// TestPreMarshaledBodiesMatchHandler pins the publish-time marshaling
// refactor: the body the handler writes is byte-identical to marshaling
// Entry.Response() on demand — exactly what the server did per-request
// before bodies moved to build time.
func TestPreMarshaledBodiesMatchHandler(t *testing.T) {
	s := testServer(t)
	for _, e := range fixtureEntries(t) {
		onDemand, err := json.Marshal(e.Response())
		if err != nil {
			t.Fatalf("%s: marshal: %v", e.Key, err)
		}
		if string(onDemand) != string(e.BodyJSON()) {
			t.Fatalf("%s: pre-marshaled body differs from on-demand marshal", e.Key)
		}
	}
	// And through the HTTP layer.
	w := do(t, s, "/v1/latency?location="+milanKey+"&game=Fortnite")
	e, ok := s.ix.Get(milanKey + "::fortnite")
	if !ok {
		t.Fatal("fixture entry missing")
	}
	if w.Body.String() != string(e.BodyJSON()) {
		t.Error("handler body differs from pre-marshaled entry body")
	}
}

// Response derives the latency response from the sorted sample: the value
// the body was rendered from at build time. The entry does not keep it
// (≈ 1.4 KiB each, and the request path serves the rendered body).
func (e *Entry) Response() LatencyResponse { return e.computeResponse() }
