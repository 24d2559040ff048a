package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/geo"
)

// testAnalysis builds one static, high-quality analysis: a single stream
// of n points at roughly base ms (±4 ms wobble, inside LatGap so every
// segment is stable).
func testAnalysis(streamer, game string, loc geo.Location, base float64, n int) *core.Analysis {
	t0 := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = core.Point{T: t0.Add(time.Duration(i) * 5 * time.Minute), Ms: base + float64(i%5)}
	}
	return core.Analyze([]core.Stream{{
		Streamer: streamer, Game: game, Location: loc, Points: pts,
	}}, core.DefaultParams())
}

var (
	locMilan  = geo.Location{City: "Milan", Region: "Lombardy", Country: "Italy"}
	locTokyo  = geo.Location{City: "Tokyo", Region: "Tokyo", Country: "Japan"}
	locQuebec = geo.Location{Region: "Quebec", Country: "Canada"}
)

// testBuilder returns a builder loaded with a small fixed world:
// three locations, two games.
func testBuilder() *Builder {
	b := NewBuilder(core.DefaultParams())
	b.Add(
		testAnalysis("s1", "Fortnite", locMilan, 40, 30),
		testAnalysis("s2", "Fortnite", locMilan, 55, 24),
		testAnalysis("s3", "League of Legends", locMilan, 70, 18),
		testAnalysis("s4", "Fortnite", locTokyo, 110, 40),
		testAnalysis("s5", "League of Legends", locQuebec, 25, 12),
	)
	return b
}

// testServer builds, swaps and wraps the fixed world.
func testServer(t *testing.T) *Server {
	t.Helper()
	ix := NewIndex(0)
	if n := ix.Swap(testBuilder().Build()); n == 0 {
		t.Fatal("fixture produced no servable entries")
	}
	return NewServer(ix)
}

// do performs one in-process request.
func do(t *testing.T, h http.Handler, path string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

const milanKey = "milan|lombardy|italy"

func TestRoutesTable(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		path string
		code int
	}{
		{"root", "/", 200},
		{"unknown route", "/v2/latency", 404},
		{"anomalies retired", "/v1/anomalies", 404},
		{"healthz", "/healthz", 200},
		{"readyz ready", "/readyz", 200},
		{"metrics", "/metrics", 200},
		{"locations", "/v1/locations", 200},
		{"games", "/v1/games", 200},
		{"latency ok", "/v1/latency?location=" + milanKey + "&game=Fortnite", 200},
		{"latency game case-insensitive", "/v1/latency?location=" + milanKey + "&game=fortnite", 200},
		{"latency missing both", "/v1/latency", 400},
		{"latency missing game", "/v1/latency?location=" + milanKey, 400},
		{"latency missing location", "/v1/latency?game=Fortnite", 400},
		{"latency unknown location", "/v1/latency?location=x|y|z&game=Fortnite", 404},
		{"latency unknown game", "/v1/latency?location=" + milanKey + "&game=Chess", 404},
		{"compare ok", "/v1/compare?a=" + milanKey + "::Fortnite&b=tokyo|tokyo|japan::Fortnite", 200},
		{"compare same", "/v1/compare?a=" + milanKey + "::Fortnite&b=" + milanKey + "::Fortnite", 200},
		{"compare missing b", "/v1/compare?a=" + milanKey + "::Fortnite", 400},
		{"compare malformed", "/v1/compare?a=no-separator&b=" + milanKey + "::Fortnite", 400},
		{"compare unknown", "/v1/compare?a=x|y|z::Fortnite&b=" + milanKey + "::Fortnite", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.path)
			if w.Code != tc.code {
				t.Fatalf("GET %s: code %d want %d (body %s)", tc.path, w.Code, tc.code, w.Body.String())
			}
			if tc.code >= 400 && strings.HasPrefix(tc.path, "/v1/") {
				var e errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("error response not JSON: %q", w.Body.String())
				}
			}
		})
	}
	if body := do(t, s, "/").Body.String(); strings.Contains(body, "anomalies") {
		t.Errorf("root listing still advertises the retired route:\n%s", body)
	}
}

func TestLatencyResponseContent(t *testing.T) {
	s := testServer(t)
	w := do(t, s, "/v1/latency?location="+milanKey+"&game=Fortnite")
	if w.Code != 200 {
		t.Fatalf("code %d: %s", w.Code, w.Body.String())
	}
	var resp LatencyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 54 { // 30 + 24 points from the two Milan Fortnite streamers
		t.Fatalf("n = %d, want 54", resp.N)
	}
	if resp.Streamers != 2 {
		t.Fatalf("streamers = %d, want 2", resp.Streamers)
	}
	if resp.Game != "Fortnite" || resp.Location.Key != milanKey {
		t.Fatalf("identity: %+v", resp)
	}
	if resp.MinMs < 40 || resp.MaxMs > 59 || resp.MinMs > resp.MaxMs {
		t.Fatalf("range [%v, %v] implausible", resp.MinMs, resp.MaxMs)
	}
	for i := 1; i < len(resp.Quantiles); i++ {
		if resp.Quantiles[i].Ms < resp.Quantiles[i-1].Ms {
			t.Fatalf("quantiles not monotone: %+v", resp.Quantiles)
		}
	}
	sum := resp.Histogram.Under + resp.Histogram.Over
	for _, c := range resp.Histogram.Counts {
		sum += c
	}
	if sum != resp.N {
		t.Fatalf("histogram accounts for %d of %d points", sum, resp.N)
	}
	last := resp.CDF.P[len(resp.CDF.P)-1]
	if last != 1 {
		t.Fatalf("CDF does not reach 1 at %v ms: %v", resp.CDF.AtMs[len(resp.CDF.AtMs)-1], last)
	}
}

func TestCompareContent(t *testing.T) {
	s := testServer(t)
	w := do(t, s, "/v1/compare?a="+milanKey+"::Fortnite&b="+milanKey+"::Fortnite")
	var same CompareResponse
	if err := json.Unmarshal(w.Body.Bytes(), &same); err != nil {
		t.Fatal(err)
	}
	if same.WassersteinMs != 0 {
		t.Fatalf("self-distance %v, want 0", same.WassersteinMs)
	}
	w = do(t, s, "/v1/compare?a="+milanKey+"::Fortnite&b=tokyo|tokyo|japan::Fortnite")
	var diff CompareResponse
	if err := json.Unmarshal(w.Body.Bytes(), &diff); err != nil {
		t.Fatal(err)
	}
	// Milan ~40-59 ms vs Tokyo ~110-114 ms: distance must be large.
	if diff.WassersteinMs < 40 {
		t.Fatalf("cross-continent distance %v implausibly small", diff.WassersteinMs)
	}
	if diff.A.N == 0 || diff.B.N == 0 || diff.A.MedianMs >= diff.B.MedianMs {
		t.Fatalf("side summaries wrong: %+v", diff)
	}
}

func TestETagRoundTrip(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/v1/latency?location=" + milanKey + "&game=Fortnite",
		"/v1/compare?a=" + milanKey + "::Fortnite&b=tokyo|tokyo|japan::Fortnite",
		"/v1/locations",
		"/v1/games",
	} {
		first := do(t, s, path)
		if first.Code != 200 {
			t.Fatalf("GET %s: %d", path, first.Code)
		}
		etag := first.Header().Get("ETag")
		if etag == "" {
			t.Fatalf("GET %s: no ETag", path)
		}
		second := do(t, s, path, "If-None-Match", etag)
		if second.Code != http.StatusNotModified {
			t.Fatalf("GET %s with If-None-Match: code %d want 304", path, second.Code)
		}
		if second.Body.Len() != 0 {
			t.Fatalf("304 carried a body: %q", second.Body.String())
		}
		if second.Header().Get("ETag") != etag {
			t.Fatalf("304 ETag changed: %q -> %q", etag, second.Header().Get("ETag"))
		}
		// A stale tag must still get the full body.
		third := do(t, s, path, "If-None-Match", `"t1-0000000000000000"`)
		if third.Code != 200 || !bytes.Equal(third.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("GET %s with stale tag: code %d, body equal=%v",
				path, third.Code, bytes.Equal(third.Body.Bytes(), first.Body.Bytes()))
		}
	}
}

func TestNotReady(t *testing.T) {
	s := NewServer(NewIndex(0))
	if w := do(t, s, "/healthz"); w.Code != 200 {
		t.Fatalf("healthz before swap: %d", w.Code)
	}
	if w := do(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before swap: %d want 503", w.Code)
	}
	for _, path := range []string{
		"/v1/locations", "/v1/games",
		"/v1/latency?location=" + milanKey + "&game=Fortnite",
		"/v1/compare?a=" + milanKey + "::Fortnite&b=" + milanKey + "::Fortnite",
	} {
		if w := do(t, s, path); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before swap: %d want 503", path, w.Code)
		}
	}
	s.ix.Swap(testBuilder().Build())
	if w := do(t, s, "/readyz"); w.Code != 200 {
		t.Fatalf("readyz after swap: %d", w.Code)
	}
}

// TestRequestTotalsCountQueriesOnly: the availability SLI is judged on /v1
// queries. Probes and scrapes move neither total, not even /readyz's 503 on
// an unready server; a query the unready server cannot answer is one bad
// request.
func TestRequestTotalsCountQueriesOnly(t *testing.T) {
	s := NewServer(NewIndex(0))
	good0, bad0 := RequestTotals() // process-global: other tests add to them
	for i := 0; i < 5; i++ {
		if w := do(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("readyz before swap: %d want 503", w.Code)
		}
	}
	do(t, s, "/healthz")
	do(t, s, "/metrics")
	if good, bad := RequestTotals(); good != good0 || bad != bad0 {
		t.Fatalf("probes moved the totals: good %v → %v, bad %v → %v", good0, good, bad0, bad)
	}
	if w := do(t, s, "/v1/latency?location="+milanKey+"&game=Fortnite"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("latency before swap: %d want 503", w.Code)
	}
	if good, bad := RequestTotals(); good != good0 || bad != bad0+1 {
		t.Fatalf("one unanswered query: good %v → %v, bad %v → %v, want bad +1", good0, good, bad0, bad)
	}
}

func TestListings(t *testing.T) {
	s := testServer(t)
	var locs struct {
		Count     int               `json:"count"`
		Locations []LocationSummary `json:"locations"`
	}
	if err := json.Unmarshal(do(t, s, "/v1/locations").Body.Bytes(), &locs); err != nil {
		t.Fatal(err)
	}
	if locs.Count != 3 || len(locs.Locations) != 3 {
		t.Fatalf("locations: %+v", locs)
	}
	// Milan serves two games; listings are sorted by location key.
	for _, l := range locs.Locations {
		if l.Location.Key == milanKey {
			if len(l.Games) != 2 || l.Games[0] != "Fortnite" || l.Games[1] != "League of Legends" {
				t.Fatalf("milan games: %v", l.Games)
			}
			if l.Points != 54+18 {
				t.Fatalf("milan points: %d", l.Points)
			}
		}
	}
	var games struct {
		Count int           `json:"count"`
		Games []GameSummary `json:"games"`
	}
	if err := json.Unmarshal(do(t, s, "/v1/games").Body.Bytes(), &games); err != nil {
		t.Fatal(err)
	}
	if games.Count != 2 {
		t.Fatalf("games: %+v", games)
	}
	for _, g := range games.Games {
		if g.Game == "Fortnite" && g.Locations != 2 {
			t.Fatalf("fortnite locations: %d", g.Locations)
		}
	}
}

// TestBuildDeterminism pins byte-identical JSON bodies across serial and
// concurrent index builds: every route's body, every entry.
func TestBuildDeterminism(t *testing.T) {
	mkServer := func(conc int) *Server {
		b := testBuilder()
		b.Concurrency = conc
		ix := NewIndex(0)
		ix.Swap(b.Build())
		return NewServer(ix)
	}
	serial := mkServer(1)
	concurrent := mkServer(8)

	paths := []string{"/v1/locations", "/v1/games"}
	cat := serial.ix.Catalog()
	for _, l := range cat.Locations {
		for _, g := range l.Games {
			paths = append(paths,
				"/v1/latency?location="+l.Location.Key+"&game="+strings.ReplaceAll(g, " ", "+"))
		}
	}
	paths = append(paths,
		"/v1/compare?a="+milanKey+"::Fortnite&b=tokyo|tokyo|japan::Fortnite")

	for _, path := range paths {
		a := do(t, serial, path)
		b := do(t, concurrent, path)
		if a.Code != 200 || b.Code != 200 {
			t.Fatalf("GET %s: serial %d concurrent %d", path, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("GET %s: bodies differ between serial and concurrent build:\n%s\n%s",
				path, a.Body.String(), b.Body.String())
		}
		if a.Header().Get("ETag") != b.Header().Get("ETag") {
			t.Fatalf("GET %s: ETags differ", path)
		}
	}
}

// TestSwapWhileReading hammers the server from many goroutines while the
// index is swapped repeatedly between two snapshots. Every response must
// be complete and well-formed (no 5xx, no torn JSON); run under -race this
// also proves the locking discipline.
func TestSwapWhileReading(t *testing.T) {
	snapA := testBuilder().Build()
	bigger := testBuilder()
	bigger.Add(testAnalysis("s9", "Fortnite", locQuebec, 33, 20))
	snapB := bigger.Build()

	ix := NewIndex(0)
	ix.Swap(snapA)
	s := NewServer(ix)

	stop := make(chan struct{})
	var swaps int
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				ix.Swap(snapB)
			} else {
				ix.Swap(snapA)
			}
			swaps++
		}
	}()

	paths := []string{
		"/v1/latency?location=" + milanKey + "&game=Fortnite",
		"/v1/locations",
		"/v1/games",
		"/v1/compare?a=" + milanKey + "::Fortnite&b=tokyo|tokyo|japan::Fortnite",
		"/readyz",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := paths[(g+i)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != 200 {
					select {
					case errs <- fmt.Errorf("GET %s: %d (%s)", path, w.Code, w.Body.String()):
					default:
					}
					return
				}
				if strings.HasPrefix(path, "/v1/") {
					var v any
					if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
						select {
						case errs <- fmt.Errorf("GET %s: torn body: %v", path, err):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestCompareAnswersFromOneSnapshot holds the index to snapshot consistency:
// a /v1/compare response pairs two entries, and both must come from the
// same publish. Two snapshots differ in both compared entries; while a
// swapper flips them, every response's ETag must be the combination of one
// snapshot's pair — never entry A of one publish with entry B of the other,
// which would be a distance between distributions never published together.
func TestCompareAnswersFromOneSnapshot(t *testing.T) {
	build := func(milan, tokyo float64) *Snapshot {
		b := NewBuilder(core.DefaultParams())
		b.Add(testAnalysis("s1", "Fortnite", locMilan, milan, 30),
			testAnalysis("s4", "Fortnite", locTokyo, tokyo, 40))
		return b.Build()
	}
	snaps := [2]*Snapshot{build(40, 110), build(47, 125)}
	keyA, keyB := EntryKey(locMilan, "Fortnite"), EntryKey(locTokyo, "Fortnite")
	want := make(map[string]bool)
	for _, snap := range snaps {
		a, okA := snap.Lookup(keyA)
		b, okB := snap.Lookup(keyB)
		if !okA || !okB {
			t.Fatal("fixture snapshot lacks a compared entry")
		}
		want[combineETags(a.etag, b.etag)] = true
	}
	if len(want) != 2 {
		t.Fatal("fixture snapshots do not differ")
	}

	ix := NewIndex(0)
	ix.Swap(snaps[0])
	s := NewServer(ix)
	stop, swapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				ix.Swap(snaps[i%2])
			}
		}
	}()

	const readers, requests = 8, 2000
	path := "/v1/compare?a=" + keyA + "&b=" + keyB
	mixed := make([]int, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				if w.Code != 200 || !want[w.Header().Get("ETag")] {
					mixed[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-swapped
	n := 0
	for _, m := range mixed {
		n += m
	}
	if n > 0 {
		t.Fatalf("%d of %d compare responses paired entries of two different snapshots", n, readers*requests)
	}
}

func TestKeys(t *testing.T) {
	if k := EntryKey(locMilan, "Fortnite"); k != milanKey+"::fortnite" {
		t.Fatalf("EntryKey: %q", k)
	}
	loc, game, ok := SplitPairKey("milan|lombardy|italy::Team Fortress 2")
	if !ok || loc != "milan|lombardy|italy" || game != "Team Fortress 2" {
		t.Fatalf("SplitPairKey: %q %q %v", loc, game, ok)
	}
	if _, _, ok := SplitPairKey("no separator"); ok {
		t.Fatal("SplitPairKey accepted malformed input")
	}
}
