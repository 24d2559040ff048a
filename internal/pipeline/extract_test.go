package pipeline

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tero/internal/download"
	"tero/internal/games"
	"tero/internal/imageproc"
	"tero/internal/imaging"
	"tero/internal/objstore"
)

// extractThumbWhole is ExtractThumb as it stood when it decoded the whole
// thumbnail to crop fifteen rows of it: DecodePGM, game lookup, stamp,
// Extract. It is the oracle the rows-only path is held to.
func extractThumbWhole(x *imageproc.Extractor, obj *objstore.Object) ThumbResult {
	r := ThumbResult{Key: obj.Key}
	game := games.ByName(obj.Meta["game"])
	img, err := imaging.DecodePGM(bytes.NewReader(obj.Data))
	if err != nil {
		r.Outcome = OutcomeCorrupt
		return r
	}
	defer imaging.Recycle(img)
	if game == nil {
		r.Outcome = OutcomeUnknown
		return r
	}
	at, err := time.Parse(time.RFC3339, obj.Meta["at"])
	if err != nil {
		r.Outcome = OutcomeCorrupt
		return r
	}
	ex := x.Extract(img, game)
	r.Streamer, r.Login, r.Game, r.AtUnix = obj.Meta["streamer"], obj.Meta["login"], game.Name, at.Unix()
	switch {
	case ex.OK:
		r.Outcome, r.Ms = OutcomeMeasured, float64(ex.Value)
		if ex.HasAlt {
			r.Alt, r.HasAlt = float64(ex.Alt), true
		}
	case ex.Zero:
		r.Outcome = OutcomeZero
	default:
		r.Outcome = OutcomeMiss
	}
	return r
}

// TestExtractThumbMatchesWholeDecode: over the seeded worldsim corpus the
// packed-vs-scalar tests of package ocr_test use (every game, the default
// corruption mix, thumbnails that force step-4 reprocessing), decoding only
// the crop's rows gives the ThumbResult that decoding the thumbnail and
// cropping it gives — for the default extractor and for the ablation that
// skips pre-processing.
func TestExtractThumbMatchesWholeDecode(t *testing.T) {
	objs := extractCorpus(t, 600)
	raw := imageproc.New()
	raw.Upscale, raw.BlurSigma = 1, 0
	for name, x := range map[string]*imageproc.Extractor{"default": imageproc.New(), "no pre-processing": raw} {
		outcomes := map[string]int{}
		for _, obj := range objs {
			got, want := ExtractThumb(x, obj), extractThumbWhole(x, obj)
			if got != want {
				t.Fatalf("%s, %s: rows-only %+v, whole decode %+v", name, obj.Key, got, want)
			}
			outcomes[got.Outcome]++
		}
		if outcomes[OutcomeMeasured] == 0 || outcomes[OutcomeMiss] == 0 {
			t.Errorf("%s: outcomes %v: the corpus should both read and miss", name, outcomes)
		}
	}
}

// TestExtractThumbHostileObjects: what the downloader can store that is not
// a rendered, stamped thumbnail of a known game. Corrupt is judged before
// the game is, whatever the rectangle; a known game's thumbnail without a
// readable "at" stamp is corrupt too; nothing panics.
func TestExtractThumbHostileObjects(t *testing.T) {
	good := extractCorpus(t, 1)[0]
	pgm := func(w, h int) []byte {
		return append([]byte(fmt.Sprintf("P5\n%d %d\n255\n", w, h)), make([]byte, w*h)...)
	}
	stamped := func(data []byte, game, at string) *objstore.Object {
		meta := map[string]string{"streamer": "s1", "login": "l1", "game": game}
		if at != "" {
			meta["at"] = at
		}
		return &objstore.Object{Key: "s1/0.pgm", Data: data, Meta: meta}
	}
	with := func(data []byte, game string) *objstore.Object { return stamped(data, game, "2026-01-01T20:00:00Z") }
	known := good.Meta["game"]
	cases := []struct {
		name string
		obj  *objstore.Object
		want string // "" : whatever the whole-decode oracle says
	}{
		{"empty body", with(nil, known), OutcomeCorrupt},
		{"torn header", with(good.Data[:9], known), OutcomeCorrupt},
		{"header only", with(good.Data[:15], known), OutcomeCorrupt},
		{"torn pixels, the crop's rows present", with(good.Data[:len(good.Data)-1], known), OutcomeCorrupt},
		{"torn pixels, half the image", with(good.Data[:len(good.Data)/2], known), OutcomeCorrupt},
		{"bit-flipped magic", with(append([]byte("Q"), good.Data[1:]...), known), OutcomeCorrupt},
		{"corrupt and of an unknown game", with(good.Data[:100], "Pong"), OutcomeCorrupt},
		{"unknown game", with(good.Data, "Pong"), OutcomeUnknown},
		{"no game at all", with(good.Data, ""), OutcomeUnknown},
		{"trailing bytes", with(append(append([]byte(nil), good.Data...), "trailer"...), known), ""},
		{"1x1", with(pgm(1, 1), known), OutcomeMiss},
		{"65536x1", with(pgm(65536, 1), known), OutcomeMiss},
		{"1x65536", with(pgm(1, 65536), known), OutcomeMiss},
		{"a thumbnail narrower than the crop", with(pgm(230, 180), known), OutcomeMiss},
		{"oversized header numerals", with([]byte("P5\n99999999999999999999 1\n255\n"), known), OutcomeCorrupt},
		{"no stamp", stamped(good.Data, known, ""), OutcomeCorrupt},
		{"garbled stamp", stamped(good.Data, known, "yesterday"), OutcomeCorrupt},
		{"stamp not RFC 3339", stamped(good.Data, known, "2026-01-01 20:00:00"), OutcomeCorrupt},
		{"unknown game, no stamp", stamped(good.Data, "Pong", ""), OutcomeUnknown},
	}
	x := imageproc.New()
	for _, tc := range cases {
		got, want := ExtractThumb(x, tc.obj), extractThumbWhole(x, tc.obj)
		if got != want {
			t.Errorf("%s: rows-only %+v, whole decode %+v", tc.name, got, want)
		}
		if tc.want != "" && got.Outcome != tc.want {
			t.Errorf("%s: outcome %s, want %s", tc.name, got.Outcome, tc.want)
		}
	}
	if got, want := ExtractThumb(x, with(append(append([]byte(nil), good.Data...), "trailer"...), known)), ExtractThumb(x, with(good.Data, known)); got != want {
		t.Errorf("trailing bytes changed the result: %+v, want %+v", got, want)
	}
}

// TestUnstampedThumbnailIsCorrupt: a thumbnail of a known game whose "at"
// stamp does not parse has no instant for its reading. A drain counts it
// once as corrupt, writes no row and pends no location lookup, and deletes
// it.
func TestUnstampedThumbnailIsCorrupt(t *testing.T) {
	good := extractCorpus(t, 1)[0]
	p := New("http://unused.invalid", 1)
	meta := map[string]string{"streamer": "s1", "login": "l1", "game": good.Meta["game"], "at": "yesterday"}
	p.Objects.Put(download.ThumbBucket, "s1/0.pgm", good.Data, meta)
	for round := 0; round < 2; round++ { // a second drain finds nothing to do
		p.ProcessThumbnails()
		rows, _ := p.Docs.After(0)
		pending := len(p.pending)
		if p.Quarantined != 1 || p.Processed != 0 || len(rows) != 0 || pending != 0 || p.Objects.Size(download.ThumbBucket) != 0 {
			t.Fatalf("drain %d: quarantined %d, processed %d, %d rows, %d pending, %d thumbnails left; want 1, 0, 0, 0, 0",
				round, p.Quarantined, p.Processed, len(rows), pending, p.Objects.Size(download.ThumbBucket))
		}
	}
}
