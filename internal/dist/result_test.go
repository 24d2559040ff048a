package dist

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"tero/internal/docstore"
	"tero/internal/games"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/pipeline"
)

// validResult is a measured reading as a worker pushes it.
func validResult(key string) Result {
	return Result{
		Key: key, Outcome: pipeline.OutcomeMeasured,
		Ms: 48, Alt: 43, HasAlt: true,
		Streamer: "s1", Login: "login1", Game: "League of Legends",
		At: "2026-01-01T20:00:00Z", AtUnix: 1767297600, AtOK: true,
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
	{"atOK, at not a time", mutate(func(r *Result) { r.At = "yesterday" })},
	{"atOK, at another instant", mutate(func(r *Result) { r.AtUnix++ })},
	{"atOK, no at", mutate(func(r *Result) { r.At = "" })},
}

func mutate(f func(*Result)) string {
	r := validResult("s1/7.pgm")
	f(&r)
	return string(r.Encode())
}

// TestIngestRejectsMalformedResults: whatever lands in the result bucket
// that is not a valid result is dropped and counted — it never reaches
// IngestResult, so the pipeline's counters, the measurements collection and
// pending-location stay as they were, and the key is not marked seen: the
// real result, pushed afterwards under the same key, is ingested.
func TestIngestRejectsMalformedResults(t *testing.T) {
	const key = "s1/7.pgm"
	for _, tc := range malformedResults {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResult(key, []byte(tc.doc)); err == nil {
				t.Fatalf("DecodeResult accepted %s", tc.doc)
			}
			st := kvstore.New()
			objects := objstore.New()
			p := pipeline.NewWithKV("http://unused.invalid", 1, st)
			c := NewCoordinator(p, st, objects)
			rejected0 := mRejected.Value()

			objects.Put(ResultBucket, key, []byte(tc.doc), nil)
			c.ingest()

			if got := mRejected.Value() - rejected0; got != 1 {
				t.Errorf("dist_results_rejected_total moved by %d, want 1", got)
			}
			if c.Ingested != 0 || p.Processed != 0 || p.Extracted != 0 || p.Zero != 0 || p.Missed != 0 || p.Quarantined != 0 {
				t.Errorf("counters moved: ingested %d, pipeline %+v", c.Ingested, []int{p.Processed, p.Extracted, p.Zero, p.Missed, p.Quarantined})
			}
			if n := len(p.Docs.C("measurements").Find(func(docstore.Doc) bool { return true })); n != 0 {
				t.Errorf("%d measurement documents inserted", n)
			}
			if pl := st.HGetAll("pending-location"); len(pl) != 0 {
				t.Errorf("pending-location = %v, want empty", pl)
			}
			if keys := objects.List(ResultBucket, ""); len(keys) != 0 {
				t.Errorf("rejected result left in the bucket: %v", keys)
			}

			objects.Put(ResultBucket, key, validResult(key).Encode(), nil)
			c.ingest()
			if c.Ingested != 1 || p.Extracted != 1 || c.Deduped != 0 {
				t.Errorf("the real result after a rejected one: ingested %d, extracted %d, deduped %d; want 1, 1, 0",
					c.Ingested, p.Extracted, c.Deduped)
			}
		})
	}
}

// TestDecodeResultAcceptsWhatWorkersPush: one result of each outcome, with
// the fields ExtractThumb fills for it, round-trips unchanged.
func TestDecodeResultAcceptsWhatWorkersPush(t *testing.T) {
	const key = "s1/7.pgm"
	measured := validResult(key)
	noAlt := validResult(key)
	noAlt.Alt, noAlt.HasAlt = 0, false
	noAt := validResult(key) // a thumbnail whose "at" metadata did not parse
	noAt.At, noAt.AtUnix, noAt.AtOK = "garbled", 0, false
	for _, r := range []Result{
		measured, noAlt, noAt,
		{Key: key, Outcome: pipeline.OutcomeZero, Streamer: "s1", Login: "login1", Game: "League of Legends"},
		{Key: key, Outcome: pipeline.OutcomeMiss, Streamer: "s1", Login: "login1", Game: "League of Legends"},
		{Key: key, Outcome: pipeline.OutcomeUnknown},
		{Key: key, Outcome: pipeline.OutcomeCorrupt, Worker: "w1"},
	} {
		got, err := DecodeResult(key, r.Encode())
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Errorf("%s: decoded %+v, %v; want %+v", r.Outcome, got, err, r)
		}
	}
}

// FuzzDecodeResult feeds DecodeResult arbitrary bytes under an arbitrary key
// — the result bucket takes an OPUT from anything that reaches the store.
// The committed corpus (testdata/fuzz/FuzzDecodeResult) is one valid result
// of each outcome and every document of malformedResults.
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
			if r.Streamer == "" || games.ByName(r.Game) == nil || !whole(r.Ms) || (r.HasAlt && !whole(r.Alt)) {
				t.Fatalf("accepted measured %+v", r)
			}
			if at, err := time.Parse(time.RFC3339, r.At); r.AtOK && (err != nil || at.Unix() != r.AtUnix) {
				t.Fatalf("accepted atOK with at %q, atUnix %d", r.At, r.AtUnix)
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
