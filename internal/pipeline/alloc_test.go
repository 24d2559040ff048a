package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tero/internal/download"
	"tero/internal/imaging"
	"tero/internal/objstore"
	"tero/internal/worldsim"
)

// TestThumbnailPathAllocationBudget holds the whole per-thumbnail path —
// CDN socket → Downloader.PollOnce and the tick's deal → object store →
// ExtractThumb → Delete — to one allocation of the body: the exact-size
// slice the downloader reads it into, which the store keeps and hands to the
// decoder as it is. The budget is 2.5× the body per cycle, HEAD, GET, the
// in-process CDN's own handlers, the metadata map, the journey trace and OCR
// included (measured 1.5×: a 57.6 KB body costs a 64 KiB size class, i.e.
// 1.14×). When the read
// was io.ReadAll and Put and Get each copied, the same cycle cost 7.7×; any
// one of those copies coming back adds 1.14× and fails this. It is the
// tier-1 guard for the benchmark's `ingest_replay` alloc_kb_per_op. Under the
// race detector the cycles still run (the CDN's goroutines, the downloader
// and the extractor share one body slice) but the budget is not judged.
func TestThumbnailPathAllocationBudget(t *testing.T) {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	st := world.Streamers[0]
	gs := world.Sessions(st)[0]
	img, _ := worldsim.RenderDeterministic(gs, 0, worldsim.DefaultRenderOptions())
	var buf bytes.Buffer
	if err := img.EncodePGM(&buf); err != nil {
		t.Fatal(err)
	}
	imaging.Recycle(img)
	body := buf.Bytes()
	digest := objstore.ChecksumHex(body)
	length := strconv.Itoa(len(body))

	// The CDN: one streamer whose thumbnail window (and seq) the test
	// advances by hand, five virtual minutes a cycle.
	start := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	var window atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := window.Load()
		h := w.Header()
		h.Set("X-Thumbnail-Seq", strconv.FormatInt(n, 10))
		h.Set("X-Next-Thumbnail", start.Add(time.Duration(n+1)*5*time.Minute).Format(time.RFC3339))
		h.Set("X-Thumbnail-Digest", digest)
		h.Set("Content-Length", length)
		if r.Method == http.MethodGet {
			w.Write(body)
		}
	}))
	defer srv.Close()

	p := New(srv.URL, 1)
	d := p.Downloaders[0]
	a, err := json.Marshal(download.Assignment{
		StreamerID: st.ID, Login: st.Username, Game: gs.Game.Name, URL: srv.URL + "/thumb/" + st.ID + ".pgm",
	})
	if err != nil {
		t.Fatal(err)
	}
	p.KV.RPush(download.KeyQueue, string(a))

	measured := 0
	cycle := func() {
		n := window.Load()
		now := start.Add(time.Duration(n) * 5 * time.Minute)
		err := d.PollOnce(now)
		download.Deal(p.KV, p.Downloaders, nil, nil)
		if err = errors.Join(err, d.FetchClaimed(now)); err != nil {
			t.Fatalf("window %d: %v", n, err)
		}
		key := st.ID + "/" + strconv.FormatInt(n, 10) + ".pgm"
		obj, err := p.Objects.Get(download.ThumbBucket, key)
		if err != nil {
			t.Fatalf("window %d: %s not stored: %v", n, key, err)
		}
		if r := ExtractThumb(p.Extractor, obj); r.Outcome == OutcomeMeasured {
			measured++
		} else if r.Outcome == OutcomeCorrupt || r.Outcome == OutcomeUnknown {
			t.Fatalf("window %d: outcome %s", n, r.Outcome)
		}
		if err := p.Objects.Delete(download.ThumbBucket, key); err != nil {
			t.Fatal(err)
		}
		window.Add(1)
	}

	const warm, cycles = 20, 200
	for i := 0; i < warm; i++ {
		cycle() // connection set-up, first claim, the imaging pools filling
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)

	if d.Downloads != warm+cycles || d.Retries != 0 {
		t.Fatalf("downloads = %d, retries = %d; want %d, 0", d.Downloads, d.Retries, warm+cycles)
	}
	if measured == 0 {
		t.Fatal("OCR read nothing: the cycle is not doing a thumbnail's work")
	}
	perCycle := float64(m1.TotalAlloc-m0.TotalAlloc) / cycles
	ratio := perCycle / float64(len(body))
	t.Logf("%.0f B allocated per thumbnail = %.2f× its %d-byte body", perCycle, ratio, len(body))
	if raceEnabled {
		t.Skip("allocation budget not judged under -race: sync.Pool drops Puts at random")
	}
	if ratio >= 2.5 {
		t.Fatalf("%.0f B allocated per thumbnail, %.2f× the %d-byte body; budget is 2.5× (one body, allocated once)",
			perCycle, ratio, len(body))
	}
}

// extractCorpus renders n thumbnails of the seeded world — every game, the
// default corruption mix — as the objects ExtractThumb is handed.
func extractCorpus(t testing.TB, n int) []*objstore.Object {
	t.Helper()
	world := worldsim.New(worldsim.DefaultConfig(1234))
	opt := worldsim.DefaultRenderOptions()
	var objs []*objstore.Object
	for _, st := range world.Streamers {
		for _, gs := range world.Sessions(st) {
			for idx := 0; idx < 3; idx++ {
				img, _ := worldsim.RenderDeterministic(gs, idx, opt)
				var buf bytes.Buffer
				if err := img.EncodePGM(&buf); err != nil {
					t.Fatal(err)
				}
				imaging.Recycle(img)
				objs = append(objs, &objstore.Object{
					Key:  st.ID + "/" + strconv.Itoa(len(objs)) + ".pgm",
					Data: buf.Bytes(),
					Meta: map[string]string{
						"streamer": st.ID, "login": st.Username, "game": gs.Game.Name,
						"at": gs.Start.Format(time.RFC3339),
					},
				})
				if len(objs) == n {
					return objs
				}
			}
		}
	}
	t.Fatalf("the world renders only %d thumbnails, want %d", len(objs), n)
	return nil
}

// TestExtractThumbAllocationBudget holds extraction alone — what
// `extract_batch` times — to a bytes-per-thumbnail budget in the steady
// state: with the imaging pools, the engines' scratch and the cell-table memo
// warm, ExtractThumb allocates no buffer proportional to the thumbnail
// (57.6 KB) or to the crop, only the engines' Results — Chars once at its
// final capacity, Text once — and what the positional filter has to copy.
// Measured ≈ 1.2 KB a thumbnail (10.2 KB before the engines segmented into
// pooled scratch, sized their results once and stopped rendering three
// metric names per engine per vote); the budget is 2 KiB. What it is there
// to catch costs more than the headroom: the smallest crop is 645 bytes and
// the average over the games ≈ 1 KB, its 2× pre-processed form 4× that, the
// blur's float intermediate 20 KB, and a Chars slice back on append-doubling
// ≈ 2 KB over the three engines. Not judged under the race detector, like
// the budget above.
func TestExtractThumbAllocationBudget(t *testing.T) {
	objs := extractCorpus(t, 300)
	x := New("http://unused.invalid", 1).Extractor
	pass := func() (measured int) {
		for _, obj := range objs {
			switch r := ExtractThumb(x, obj); r.Outcome {
			case OutcomeMeasured:
				measured++
			case OutcomeCorrupt, OutcomeUnknown:
				t.Fatalf("%s: outcome %s", obj.Key, r.Outcome)
			}
		}
		return measured
	}
	if pass() == 0 { // warms the pools, the scratch and the memo
		t.Fatal("OCR read nothing: the pass is not doing a thumbnail's work")
	}
	// The least of three passes: TotalAlloc is process-wide, and a GC inside
	// a pass empties the pools once.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pass()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	per := float64(least) / float64(len(objs))
	t.Logf("%.0f B allocated per thumbnail", per)
	if raceEnabled {
		t.Skip("allocation budget not judged under -race: sync.Pool drops Puts at random")
	}
	const budget = 2 << 10
	if per >= budget {
		t.Fatalf("%.0f B allocated per thumbnail; budget is %d", per, budget)
	}
}
