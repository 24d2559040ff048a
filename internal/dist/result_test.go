package dist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tero/internal/games"
	"tero/internal/kvstore"
	"tero/internal/pipeline"
)

// validResult is a measured reading as a worker pushes it.
func validResult(key string) Result {
	return Result{
		ThumbResult: pipeline.ThumbResult{
			Key: key, Outcome: pipeline.OutcomeMeasured,
			Ms: 48, Alt: 43, HasAlt: true,
			Streamer: "s1", Login: "login1", Game: "League of Legends",
			AtUnix: 1767297600,
		},
		Worker: "w1",
	}
}

// malformedResults are documents that are valid JSON (all but the first) and
// not a result ExtractThumb produces for the key "s1/7.pgm".
var malformedResults = []struct{ name, doc string }{
	{"torn", `{"key":"s1/7.pgm","outcome":"meas`},
	{"empty object", `{}`},
	{"JSON null", `null`},
	{"a JSON array", `[]`},
	{"outcome only", `{"outcome":"measured"}`},
	{"unknown outcome", `{"key":"s1/7.pgm","outcome":"extracted","streamer":"s1"}`},
	{"outcome in another case", `{"key":"s1/7.pgm","outcome":"Miss","streamer":"s1"}`},
	{"another thumbnail's key", `{"key":"s2/7.pgm","outcome":"miss","streamer":"s1"}`},
	{"no key", `{"outcome":"corrupt"}`},
	{"miss of nobody", `{"key":"s1/7.pgm","outcome":"miss"}`},
	{"zero of nobody", `{"key":"s1/7.pgm","outcome":"zero","login":"login1"}`},
	{"measured, no streamer", mutate(func(r *Result) { r.Streamer = "" })},
	{"measured, no game", mutate(func(r *Result) { r.Game = "" })},
	{"measured, a game nobody knows", mutate(func(r *Result) { r.Game = "Pong" })},
	{"0 ms is the lobby placeholder", mutate(func(r *Result) { r.Ms = 0 })},
	{"negative", mutate(func(r *Result) { r.Ms = -48 })},
	{"four digits", mutate(func(r *Result) { r.Ms = 1000 })},
	{"a fraction of a millisecond", mutate(func(r *Result) { r.Ms = 48.5 })},
	{"ms out of float64's range", strings.Replace(mutate(func(*Result) {}), `"ms":48`, `"ms":1e999`, 1)},
	{"alt out of range", mutate(func(r *Result) { r.Alt = 4300 })},
	{"alt a fraction", mutate(func(r *Result) { r.Alt = 0.43 })},
	{"hasAlt without alt", mutate(func(r *Result) { r.Alt = 0 })},
	{"measured, no atUnix", mutate(func(r *Result) { r.AtUnix = 0 })},
}

func mutate(f func(*Result)) string {
	r := validResult("s1/7.pgm")
	f(&r)
	return string(r.Encode())
}

// TestIngestRejectsMalformedResults: whatever lands in the result hash
// that is not a valid result is dropped and counted — it never reaches
// IngestResult, so the pipeline's counters and the measurements collection
// stay as they were (and so do its pending location lookups, which
// IngestResult adds only to a reading it counts as processed), and the key
// is not marked seen: the real result, pushed afterwards under the same
// key, is ingested.
func TestIngestRejectsMalformedResults(t *testing.T) {
	const key = "s1/7.pgm"
	for _, tc := range malformedResults {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResult(key, []byte(tc.doc)); err == nil {
				t.Fatalf("DecodeResult accepted %s", tc.doc)
			}
			st := kvstore.New()
			p := pipeline.NewWithKV("http://unused.invalid", 1, st)
			c := NewCoordinator(p, st)
			rejected0 := mRejected.Value()

			st.HSet(KeyResults, key, tc.doc)
			c.ingest()

			if got := mRejected.Value() - rejected0; got != 1 {
				t.Errorf("dist_results_rejected_total moved by %d, want 1", got)
			}
			if c.Ingested != 0 || p.Processed != 0 || p.Extracted != 0 || p.Zero != 0 || p.Missed != 0 || p.Quarantined != 0 {
				t.Errorf("counters moved: ingested %d, pipeline %+v", c.Ingested, []int{p.Processed, p.Extracted, p.Zero, p.Missed, p.Quarantined})
			}
			if rows, _ := p.Docs.After(0); len(rows) != 0 {
				t.Errorf("%d measurements inserted", len(rows))
			}
			if left := st.HGetAll(KeyResults); len(left) != 0 {
				t.Errorf("rejected result left in the hash: %v", left)
			}

			st.HSet(KeyResults, key, string(validResult(key).Encode()))
			c.ingest()
			if c.Ingested != 1 || p.Extracted != 1 || c.Deduped != 0 {
				t.Errorf("the real result after a rejected one: ingested %d, extracted %d, deduped %d; want 1, 1, 0",
					c.Ingested, p.Extracted, c.Deduped)
			}
		})
	}
}

// TestIngestInKeyOrder: two workers push results over the wire in reverse
// key order, interleaved. The coordinator ingests them in thumbnail-key
// order — HGETALL hands back a map, so only the sort makes the measurement
// table's insertion order the same run to run — and leaves the hash empty.
func TestIngestInKeyOrder(t *testing.T) {
	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var workers [2]*kvstore.RemoteStore
	for i := range workers {
		if workers[i], err = kvstore.DialStore(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { workers[i].Close() })
	}
	const n = 8
	for i := n; i >= 1; i-- { // key i reads i ms
		r := validResult(fmt.Sprintf("s%d/7.pgm", i))
		r.Streamer, r.Ms, r.Worker = fmt.Sprintf("s%d", i), float64(i), fmt.Sprintf("w%d", i%2+1)
		w := workers[i%2]
		w.HSet(KeyResults, r.Key, string(r.Encode()))
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
	}

	p := pipeline.NewWithKV("http://unused.invalid", 1, st)
	c := NewCoordinator(p, st)
	c.ingest()
	rows, _ := p.Docs.After(0)
	if len(rows) != n || c.Ingested != n {
		t.Fatalf("%d rows, %d ingested; want %d", len(rows), c.Ingested, n)
	}
	for i, m := range rows {
		if m.Ms != float64(i+1) {
			t.Fatalf("row %d reads %v ms: rows not in key order", i, m.Ms)
		}
	}
	if left := st.HGetAll(KeyResults); len(left) != 0 {
		t.Fatalf("%d results left in %s after ingest", len(left), KeyResults)
	}
}

// TestDecodeResultAcceptsWhatWorkersPush: one result of each outcome, with
// the fields ExtractThumb fills for it, round-trips unchanged.
func TestDecodeResultAcceptsWhatWorkersPush(t *testing.T) {
	const key = "s1/7.pgm"
	measured := validResult(key)
	noAlt := validResult(key)
	noAlt.Alt, noAlt.HasAlt = 0, false
	for _, r := range []Result{
		measured, noAlt,
		{ThumbResult: pipeline.ThumbResult{Key: key, Outcome: pipeline.OutcomeZero, Streamer: "s1", Login: "login1", Game: "League of Legends", AtUnix: 1767297600}},
		{ThumbResult: pipeline.ThumbResult{Key: key, Outcome: pipeline.OutcomeMiss, Streamer: "s1", Login: "login1", Game: "League of Legends", AtUnix: 1767297600}},
		{ThumbResult: pipeline.ThumbResult{Key: key, Outcome: pipeline.OutcomeUnknown}},
		{ThumbResult: pipeline.ThumbResult{Key: key, Outcome: pipeline.OutcomeCorrupt}, Worker: "w1"},
	} {
		got, err := DecodeResult(key, r.Encode())
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Errorf("%s: decoded %+v, %v; want %+v", r.Outcome, got, err, r)
		}
	}
}

// TestResultWireBytes pins the result document to its exact bytes: the
// fields of pipeline.ThumbResult, in order, then the provenance. A worker and
// a coordinator built from different versions must still read each other.
func TestResultWireBytes(t *testing.T) {
	r := validResult("s1/7.pgm")
	r.Traceparent = "00-0000000000000000deadbeefcafe0001-00000000000000ab-01"
	const want = `{"key":"s1/7.pgm","outcome":"measured","ms":48,"alt":43,"hasAlt":true,` +
		`"streamer":"s1","login":"login1","game":"League of Legends",` +
		`"atUnix":1767297600,` +
		`"traceparent":"00-0000000000000000deadbeefcafe0001-00000000000000ab-01","worker":"w1"}`
	if got := string(r.Encode()); got != want {
		t.Fatalf("Encode() =\n%s\nwant\n%s", got, want)
	}
	corrupt := Result{ThumbResult: pipeline.ThumbResult{Key: "k", Outcome: pipeline.OutcomeCorrupt}}
	if got := string(corrupt.Encode()); got != `{"key":"k","outcome":"corrupt"}` {
		t.Fatalf("Encode() of a bare corrupt result = %s", got)
	}
}

// FuzzDecodeResult feeds DecodeResult arbitrary bytes under an arbitrary key
// — the result hash takes an HSET from anything that reaches the store.
// The committed corpus (testdata/fuzz/FuzzDecodeResult) is one valid result
// of each outcome, every document of malformedResults, and three bad-atOK-*
// documents that carry "at" and "atOK" fields beside atUnix: the fields are
// not the wire's, so they are ignored and only atUnix decides.
// Oracles: it never panics; whatever it accepts satisfies, field by field,
// the predicate its comment states (restated here, not called); and an
// accepted result re-encodes to a document that decodes to the same value.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		r, err := DecodeResult(key, data)
		if err != nil {
			return
		}
		if r.Key != key {
			t.Fatalf("accepted key %q under %q", r.Key, key)
		}
		whole := func(v float64) bool { return v >= 1 && v <= 999 && v == float64(int(v)) }
		switch r.Outcome {
		case pipeline.OutcomeCorrupt, pipeline.OutcomeUnknown:
		case pipeline.OutcomeZero, pipeline.OutcomeMiss:
			if r.Streamer == "" {
				t.Fatalf("accepted a %s of no streamer", r.Outcome)
			}
		case pipeline.OutcomeMeasured:
			if r.Streamer == "" || games.ByName(r.Game) == nil || !whole(r.Ms) || (r.HasAlt && !whole(r.Alt)) || r.AtUnix == 0 {
				t.Fatalf("accepted measured %+v", r)
			}
		default:
			t.Fatalf("accepted outcome %q", r.Outcome)
		}
		again, err := DecodeResult(key, r.Encode())
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("accepted %+v; re-encoded it decodes to %+v, %v", r, again, err)
		}
	})
}

// FuzzDecodeWorkerStats feeds DecodeWorkerStats arbitrary strings — a
// check-in is an HSET anything reaching the store can overwrite, and the
// barrier and Coordinator.Stats decode every one. The committed corpus
// (testdata/fuzz/FuzzDecodeWorkerStats) is a check-in as a worker writes it,
// the same record without its round, and a few a worker never writes. Oracles: it never panics, and an accepted record
// re-encodes to one that decodes to the same value.
func FuzzDecodeWorkerStats(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		w, err := DecodeWorkerStats(s)
		if err != nil {
			return
		}
		if again, err := DecodeWorkerStats(w.Encode()); err != nil || again != w {
			t.Fatalf("accepted %+v; re-encoded it decodes to %+v, %v", w, again, err)
		}
	})
}
