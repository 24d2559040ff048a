package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// TestBinaryRoundTrip pins the core contract: for every fixture entry,
// decoding the build-time binary body yields exactly the struct that the
// JSON body unmarshals to — every float64 bit pattern preserved.
func TestBinaryRoundTrip(t *testing.T) {
	for _, e := range fixtureEntries(t) {
		var fromJSON LatencyResponse
		if err := json.Unmarshal(e.BodyJSON(), &fromJSON); err != nil {
			t.Fatalf("%s: unmarshal JSON body: %v", e.Key, err)
		}
		fromBin, err := DecodeLatencyBinary(e.BodyBinary())
		if err != nil {
			t.Fatalf("%s: decode binary body: %v", e.Key, err)
		}
		if !reflect.DeepEqual(fromJSON, fromBin) {
			t.Errorf("%s: binary decode differs from JSON decode\njson: %+v\nbin:  %+v",
				e.Key, fromJSON, fromBin)
		}
		// And against the in-memory response, float-for-float.
		if !reflect.DeepEqual(e.Response(), fromBin) {
			t.Errorf("%s: binary decode differs from in-memory response", e.Key)
		}
	}
}

// TestBinaryPreservesFloatBits feeds the encoder values that JSON cannot
// even carry losslessly-looking (subnormals, ulp-separated values) and
// checks exact bit preservation.
func TestBinaryPreservesFloatBits(t *testing.T) {
	r := LatencyResponse{
		Game:   "g",
		MeanMs: math.SmallestNonzeroFloat64,
		StdMs:  math.Nextafter(1, 2), // 1 + one ulp
		MinMs:  -0.0,
		MaxMs:  math.MaxFloat64,
		CDF: CDFJSON{
			AtMs: []float64{0.1, 0.2, 0.30000000000000004},
			P:    []float64{0, 0.5, 1},
		},
	}
	got, err := DecodeLatencyBinary(EncodeLatencyBinary(&r))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, pair := range [][2]float64{
		{r.MeanMs, got.MeanMs}, {r.StdMs, got.StdMs},
		{r.MinMs, got.MinMs}, {r.MaxMs, got.MaxMs},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("bit pattern changed: %x -> %x",
				math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
	for i := range r.CDF.AtMs {
		if math.Float64bits(r.CDF.AtMs[i]) != math.Float64bits(got.CDF.AtMs[i]) {
			t.Errorf("cdf at_ms[%d] bit pattern changed", i)
		}
	}
}

// TestBinaryDecodeErrors checks the decoder rejects malformed input rather
// than misreading it.
func TestBinaryDecodeErrors(t *testing.T) {
	e := fixtureEntries(t)[0]
	good := e.BodyBinary()

	if _, err := DecodeLatencyBinary(nil); err == nil {
		t.Error("nil input: want error")
	}
	if _, err := DecodeLatencyBinary([]byte("XXXX")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}
	// Truncation at every byte boundary must error, never panic or succeed.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeLatencyBinary(good[:n]); err == nil {
			t.Fatalf("truncated to %d of %d bytes decoded without error", n, len(good))
		}
	}
	// Trailing garbage is detected.
	if _, err := DecodeLatencyBinary(append(append([]byte(nil), good...), 0xFF)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: got %v", err)
	}
}

// TestBinaryNegotiation drives the handler: the Accept header selects the
// representation, each representation has its own ETag, and a 304 replay
// works per-representation.
func TestBinaryNegotiation(t *testing.T) {
	s := testServer(t)
	path := "/v1/latency?location=" + milanKey + "&game=Fortnite"

	wJSON := do(t, s, path)
	if wJSON.Code != http.StatusOK {
		t.Fatalf("JSON: status %d", wJSON.Code)
	}
	if ct := wJSON.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	jsonTag := wJSON.Header().Get("ETag")
	if !strings.HasPrefix(jsonTag, "\"t1-") {
		t.Errorf("JSON ETag = %q, want t1- form", jsonTag)
	}

	wBin := do(t, s, path, "Accept", ContentTypeBinary)
	if wBin.Code != http.StatusOK {
		t.Fatalf("binary: status %d", wBin.Code)
	}
	if ct := wBin.Header().Get("Content-Type"); ct != ContentTypeBinary {
		t.Errorf("binary Content-Type = %q, want %q", ct, ContentTypeBinary)
	}
	binTag := wBin.Header().Get("ETag")
	if !strings.HasPrefix(binTag, "\"t1b-") {
		t.Errorf("binary ETag = %q, want t1b- form", binTag)
	}
	if binTag == jsonTag {
		t.Error("binary and JSON ETags must differ (representations are cache-incompatible)")
	}

	// The two bodies decode to the same response.
	var fromJSON LatencyResponse
	if err := json.Unmarshal(wJSON.Body.Bytes(), &fromJSON); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	fromBin, err := DecodeLatencyBinary(wBin.Body.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Error("served binary body decodes differently from served JSON body")
	}

	// Per-representation revalidation.
	w304 := do(t, s, path, "Accept", ContentTypeBinary, "If-None-Match", binTag)
	if w304.Code != http.StatusNotModified || w304.Body.Len() != 0 {
		t.Errorf("binary revalidate: status %d, body %d bytes", w304.Code, w304.Body.Len())
	}
	// A JSON tag must NOT revalidate the binary representation.
	wMiss := do(t, s, path, "Accept", ContentTypeBinary, "If-None-Match", jsonTag)
	if wMiss.Code != http.StatusOK {
		t.Errorf("JSON tag against binary representation: status %d, want 200", wMiss.Code)
	}

	// The route negotiates on Accept, so every 200 and 304 of it — either
	// representation — must say so to any cache between client and server.
	w304JSON := do(t, s, path, "If-None-Match", jsonTag)
	for name, w := range map[string]*httptest.ResponseRecorder{
		"JSON 200": wJSON, "binary 200": wBin, "JSON 304": w304JSON, "binary 304": w304,
	} {
		if v := w.Header().Get("Vary"); v != "Accept" {
			t.Errorf("%s: Vary = %q, want %q", name, v, "Accept")
		}
	}
}

// TestBinaryWireSizeRealistic: for realistic latency data — floats that
// need their full 17 significant digits in text — the binary body is
// meaningfully smaller than JSON. (The integral test fixture is the
// opposite: "40" is cheaper in JSON than 8 binary bytes; real pipeline
// output is not integral.)
func TestBinaryWireSizeRealistic(t *testing.T) {
	r := LatencyResponse{
		Location: LocationJSON{Key: "milan|lombardy|italy", City: "Milan",
			Region: "Lombardy", Country: "Italy", Display: "Milan, Lombardy, Italy"},
		Game: "Fortnite", N: 1000, Streamers: 12,
	}
	f := func(i int) float64 { return 40 + math.Sqrt(float64(i))*1.7 }
	r.MeanMs, r.StdMs, r.MinMs, r.MaxMs = f(1), f(2), f(3), f(4)
	for i := 0; i < 9; i++ {
		r.Quantiles = append(r.Quantiles, QuantileJSON{P: float64(i) * 11.1, Ms: f(i)})
	}
	r.Histogram = HistogramJSON{LoMs: 0, HiMs: 400, BinWidthMs: 10,
		Counts: make([]int, 40), Under: 1, Over: 2}
	for i := 0; i <= 40; i++ {
		r.CDF.AtMs = append(r.CDF.AtMs, float64(i)*10)
		r.CDF.P = append(r.CDF.P, 1/(1+math.Exp(-f(i)/50)))
	}
	jsonBody, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	binBody := EncodeLatencyBinary(&r)
	if len(binBody) >= len(jsonBody) {
		t.Errorf("binary body (%d bytes) not smaller than JSON (%d bytes) on full-precision data",
			len(binBody), len(jsonBody))
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
