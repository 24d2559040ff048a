package download

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tero/internal/imaging"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/obs"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// harness spins up a platform over a small world plus the download module.
func harness(t *testing.T, streamers int) (*twitchsim.Platform, *Coordinator, []*Downloader, *objstore.Store) {
	t.Helper()
	cfg := worldsim.DefaultConfig(11)
	cfg.Streamers = streamers
	cfg.Days = 1
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)

	kv := kvstore.New()
	store := objstore.New()
	coord := NewCoordinator(kv, NewAPIClient(platform.URL()))
	var dls []*Downloader
	for i := 0; i < 3; i++ {
		dls = append(dls, NewDownloader(string(rune('A'+i)), kv, store))
	}
	return platform, coord, dls, store
}

// busiestHour returns the hour offset (from world start) with the most
// concurrently live sessions, so tests observe a busy platform regardless
// of how the generated schedule lands.
func busiestHour(world *worldsim.World) time.Duration {
	best, bestN := time.Duration(0), -1
	for h := 0; h < 36; h++ {
		at := world.Cfg.Start.Add(time.Duration(h) * time.Hour)
		n := 0
		for _, st := range world.Streamers {
			for _, gs := range world.Sessions(st) {
				if len(gs.Times) == 0 {
					continue
				}
				if !at.Before(gs.Times[0]) && !at.After(gs.Times[len(gs.Times)-1]) {
					n++
					break
				}
			}
		}
		if n > bestN {
			best, bestN = time.Duration(h)*time.Hour, n
		}
	}
	return best
}

// drive advances virtual time in 1-minute ticks (finer than the 5-minute
// thumbnail cadence), polling the coordinator every 5 minutes and, each
// tick, every downloader, then dealing the queue among them and running the
// dealt streamers' first fetches — the pipeline's tick, serially.
func drive(t *testing.T, platform *twitchsim.Platform, coord *Coordinator, dls []*Downloader, hours float64) {
	t.Helper()
	ticks := int(hours * 60)
	for i := 0; i < ticks; i++ {
		if i%5 == 0 {
			if err := coord.PollOnce(); err != nil {
				t.Fatalf("coordinator: %v", err)
			}
		}
		for _, d := range dls {
			if err := d.PollOnce(platform.Now()); err != nil {
				t.Fatalf("downloader %s: %v", d.ID, err)
			}
		}
		Deal(dls[0].KV, dls, nil, nil)
		for _, d := range dls {
			if err := d.FetchClaimed(platform.Now()); err != nil {
				t.Fatalf("downloader %s: %v", d.ID, err)
			}
		}
		platform.Advance(time.Minute)
	}
}

func TestDownloadPipelineCollectsThumbnails(t *testing.T) {
	platform, coord, dls, store := harness(t, 40)
	// Jump to the busiest window of the generated schedule.
	platform.Advance(busiestHour(platform.World) - time.Hour)
	drive(t, platform, coord, dls, 6)

	total := 0
	for _, d := range dls {
		total += d.Downloads
	}
	if total < 20 {
		t.Fatalf("downloads = %d, want plenty", total)
	}
	if store.Size(ThumbBucket) != total {
		t.Fatalf("stored %d != downloaded %d", store.Size(ThumbBucket), total)
	}
	// Stored thumbnails decode as PGM and carry metadata.
	keys := store.List(ThumbBucket, "")
	o, err := store.Get(ThumbBucket, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	img, err := imaging.DecodePGM(bytes.NewReader(o.Data))
	if err != nil {
		t.Fatalf("bad PGM: %v", err)
	}
	if img.W != 320 || img.H != 180 {
		t.Fatalf("thumb size %dx%d", img.W, img.H)
	}
	for _, field := range []string{"streamer", "game", "at", "login"} {
		if o.Meta[field] == "" {
			t.Fatalf("missing meta %q", field)
		}
	}
}

func TestLoadBalancingSpreadsWork(t *testing.T) {
	platform, coord, dls, _ := harness(t, 150)
	platform.Advance(busiestHour(platform.World) - time.Hour)
	drive(t, platform, coord, dls, 4)
	// At least two downloaders should have adopted streamers.
	busy := 0
	for _, d := range dls {
		if d.Assigned() > 0 || d.Downloads > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d downloaders busy", busy)
	}
}

func TestOfflineDetectionFreesStreamers(t *testing.T) {
	platform, coord, dls, _ := harness(t, 40)
	platform.Advance(busiestHour(platform.World))
	drive(t, platform, coord, dls, 2)
	if len(coord.KV.HGetAll(KeyActive)) == 0 {
		t.Fatal("nothing active during evening")
	}
	// Fast-forward past the end of the one-day world: every session over.
	platform.Advance(40 * time.Hour)
	drive(t, platform, coord, dls, 1)
	for _, d := range dls {
		if d.Assigned() != 0 {
			t.Fatalf("downloader %s still has %d assignments", d.ID, d.Assigned())
		}
	}
}

func TestCoordinatorCrashRecovery(t *testing.T) {
	platform, coord, dls, store := harness(t, 40)
	platform.Advance(busiestHour(platform.World))
	drive(t, platform, coord, dls, 2)
	active := len(coord.KV.HGetAll(KeyActive))
	if active == 0 {
		t.Fatal("no active streamers")
	}
	// Simulate coordinator crash: a new coordinator over the same KV store
	// must not re-enqueue already-active streamers.
	kv := coord.KV
	coord2 := NewCoordinator(kv, coord.API)
	qBefore := kv.LLen("dl:queue")
	if err := coord2.PollOnce(); err != nil {
		t.Fatal(err)
	}
	qAfter := kv.LLen("dl:queue")
	if qAfter > qBefore+active/4 {
		t.Fatalf("recovery re-enqueued massively: %d -> %d", qBefore, qAfter)
	}
	_ = store
}

// TestAPIClientRateLimitRetries: a page the quota refuses fails the
// coordinator's poll with ErrRateLimited after exactly one request — no
// retry, no sleep — and the next poll, once the platform's clock has
// refilled the quota, succeeds.
func TestAPIClientRateLimitRetries(t *testing.T) {
	platform, coord, _, _ := harness(t, 30)
	platform.Advance(busiestHour(platform.World))
	platform.SetAPIRate(1.0/60, 1) // one token a virtual minute; 30 streamers are one page
	if err := coord.PollOnce(); err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	prevW := obs.SetLogOutput(nil) // expected warn line
	defer obs.SetLogOutput(prevW)
	if err := coord.PollOnce(); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("poll at a frozen instant: %v, want ErrRateLimited", err)
	}
	snap := obs.Default.Snapshot()
	for name, want := range map[string]int64{
		"download_api_requests_total": 1,
		"download_api_429_total":      1,
		"download_api_retries_total":  0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	platform.Advance(time.Minute)
	if err := coord.PollOnce(); err != nil {
		t.Fatalf("poll a virtual minute later: %v", err)
	}
}

func TestUserDescription(t *testing.T) {
	_, coord, _, _ := harness(t, 10)
	login, desc, err := coord.API.UserDescription("tw0000001")
	if err != nil {
		t.Fatal(err)
	}
	if login == "" || desc == "" {
		t.Fatalf("login=%q desc=%q", login, desc)
	}
	if _, _, err := coord.API.UserDescription("nope"); err == nil {
		t.Fatal("missing user should error")
	}
}

func TestAssignmentCodec(t *testing.T) {
	a := Assignment{StreamerID: "x", Login: "l", Game: "g", URL: "http://u"}
	got, err := decodeAssignment(a.encode())
	if err != nil || got != a {
		t.Fatalf("roundtrip = %+v, %v", got, err)
	}
	if _, err := decodeAssignment("{bad"); err == nil {
		t.Fatal("bad json should error")
	}
}

// TestDealByCeilShare: four downloaders and a queue of ten valid entries
// plus one corrupt one. After one tick's poll and the deal, the queue is
// empty, the valid entries are dealt 3/3/3/1 in downloader order — the
// ceil-share ⌈11/4⌉ fills the first three — each dealt streamer has had its
// first fetch, and the corrupt entry is consumed without a claim.
func TestDealByCeilShare(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	body := []byte("P5 4 2 255\n01234567")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveThumb(w, r, 1, now.Add(5*time.Minute), body)
	}))
	defer srv.Close()

	kv, store := kvstore.New(), objstore.New()
	var dls []*Downloader
	for _, id := range []string{"A", "B", "C", "D"} {
		dls = append(dls, NewDownloader(id, kv, store))
	}
	for i := 0; i < 10; i++ {
		if i == 4 {
			kv.RPush(KeyQueue, "{corrupt")
		}
		id := fmt.Sprintf("s%02d", i)
		kv.RPush(KeyQueue, Assignment{StreamerID: id, URL: srv.URL + "/thumb/" + id + ".pgm"}.encode())
	}

	for _, d := range dls {
		if err := d.PollOnce(now); err != nil {
			t.Fatal(err)
		}
	}
	Deal(kv, dls, nil, nil)
	for _, d := range dls {
		if err := d.FetchClaimed(now); err != nil {
			t.Fatal(err)
		}
	}

	if n := kv.LLen(KeyQueue); n != 0 {
		t.Fatalf("%d entries left queued", n)
	}
	want := map[string]string{}
	for i, owner := range []string{"A", "A", "A", "B", "B", "B", "C", "C", "C", "D"} {
		want[fmt.Sprintf("s%02d", i)] = owner
	}
	if got := kv.HGetAll(KeyClaimed); !reflect.DeepEqual(got, want) {
		t.Fatalf("claims = %v, want %v", got, want)
	}
	for i, n := range []int{3, 3, 3, 1} {
		if d := dls[i]; d.Assigned() != n || d.Claims != n || d.Downloads != n {
			t.Errorf("downloader %s: %d assigned, %d claims, %d downloads; want %d each",
				d.ID, d.Assigned(), d.Claims, d.Downloads, n)
		}
	}
	if n := store.Size(ThumbBucket); n != 10 {
		t.Fatalf("%d thumbnails stored, want one per dealt streamer", n)
	}
}

// FuzzDecodeAssignment feeds decodeAssignment arbitrary strings — a queue
// entry is an RPUSH anything reaching the store can make, and Deal decodes
// it. The committed corpus (testdata/fuzz/FuzzDecodeAssignment) is an entry
// as the coordinator queues it and a few it never queues. Oracles:
// it never panics, and an accepted assignment re-encodes to an entry that
// decodes to the same value.
func FuzzDecodeAssignment(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		a, err := decodeAssignment(s)
		if err != nil {
			return
		}
		if again, err := decodeAssignment(a.encode()); err != nil || again != a {
			t.Fatalf("accepted %+v; re-encoded it decodes to %+v, %v", a, again, err)
		}
	})
}
