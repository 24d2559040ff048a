package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func TestEndToEndPipeline(t *testing.T) {
	world, p := driveWorld(t, 23, 120, 6*30, 3, 0, nil)

	if p.Processed == 0 {
		t.Fatal("no thumbnails processed")
	}
	if p.Extracted == 0 {
		t.Fatal("no latency measurements extracted")
	}
	// Extraction rate: most visible measurements extracted, some missed
	// (§4.2.2 reports ~28% missed).
	missRate := float64(p.Missed) / float64(p.Processed)
	if missRate > 0.6 {
		t.Fatalf("miss rate %.2f too high", missRate)
	}
	// Measurements stored under pseudonyms (§7): no field of a stored
	// reading, typed or as Find renders it, holds a platform ID or a login.
	known := make(map[string]bool)
	for _, st := range world.Streamers {
		known[st.ID], known[st.Username] = true, true
	}
	rows, _ := p.Docs.After(0)
	for _, m := range rows {
		if len(m.Streamer) < 5 || m.Streamer[:5] != "anon-" {
			t.Fatalf("raw ID leaked: %q", m.Streamer)
		}
		v := reflect.ValueOf(m)
		for i := 0; i < v.NumField(); i++ {
			if f := fmt.Sprint(v.Field(i)); known[f] {
				t.Fatalf("measurement field %s holds the streamer identity %q", v.Type().Field(i).Name, f)
			}
		}
	}
	for _, d := range p.Docs.Find(nil) {
		for k, f := range d {
			if known[fmt.Sprint(f)] {
				t.Fatalf("rendered measurement field %s holds the streamer identity %q", k, f)
			}
		}
	}
	// The stored readings, in insertion order, are pinned. The value comes
	// from the serial deal plus window-stamped thumbnails: every queued
	// streamer is adopted on the tick that queued it and stamped with its
	// thumbnail window, so the same digest reproduces at 1 and at 4
	// downloaders (and at 3, as here), at any Concurrency. The order is
	// Drive's, one key-ordered batch per drain; sorted, the rows are those
	// of a single drain at the end.
	h := sha256.New()
	for _, m := range rows {
		fmt.Fprintf(h, "%s|%s|%s|%d|%v|%t|%v\n", m.Streamer, m.Game, stamp(m.AtUnix), m.AtUnix, m.Ms, m.HasAlt, m.Alt)
	}
	const readingsDigest = "85147be6b261cbd068052040edb6a2d4733bdccbf96e56a95af8b4efebbcdb10"
	if got := hex.EncodeToString(h.Sum(nil)); len(rows) != 1022 || got != readingsDigest {
		t.Fatalf("%d stored readings, digest %s; want 1022, %s", len(rows), got, readingsDigest)
	}
}

func TestPipelineStreamsAndAnalysis(t *testing.T) {
	_, p := driveWorld(t, 23, 120, 6*30, 3, 0, nil)
	streams := p.BuildStreams()
	if len(streams) == 0 {
		t.Fatal("no streams built")
	}
	for _, s := range streams {
		for i := 1; i < len(s.Points); i++ {
			if !s.Points[i].T.After(s.Points[i-1].T) {
				t.Fatal("points not strictly ordered")
			}
			if gap := s.Points[i].T.Sub(s.Points[i-1].T); gap > streamGap {
				t.Fatalf("stream not split at %v gap", gap)
			}
		}
	}
	analyses := p.Analyze(core.DefaultParams())
	if len(analyses) == 0 {
		t.Fatal("no analyses")
	}
	kept := 0
	for _, a := range analyses {
		if !a.Discarded {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("every analysis discarded")
	}
}

func TestPipelineLocationsMatchGroundTruth(t *testing.T) {
	world, p := driveWorld(t, 23, 150, 4*30, 3, 0, nil)
	if p.Located == 0 {
		t.Fatal("nothing located")
	}
	wrong, checked := 0, 0
	for _, st := range world.Streamers {
		rec := p.located[p.Anonymize(st.ID)]
		if rec == nil || len(rec.hist) == 0 {
			continue
		}
		loc := rec.hist[len(rec.hist)-1].loc
		checked++
		if !loc.Compatible(st.Place.Location()) {
			wrong++
		}
	}
	if checked == 0 {
		t.Fatal("no located streamers to check")
	}
	if float64(wrong) > 0.1*float64(checked) {
		t.Fatalf("wrong locations: %d/%d", wrong, checked)
	}
}

func TestAnonymizeStable(t *testing.T) {
	p := &Pipeline{Salt: "s"}
	a := p.Anonymize("tw0000001")
	b := p.Anonymize("tw0000001")
	c := p.Anonymize("tw0000002")
	if a != b {
		t.Fatal("anonymization not stable")
	}
	if a == c {
		t.Fatal("collision")
	}
	if a[:5] != "anon-" {
		t.Fatalf("format: %s", a)
	}
}

// TestLocateUnderQuotaIsDeterministic: with more streamers pending than the
// API quota holds, one location round at Concurrency 1 and at 8 describes
// the same sorted prefix, stops at the first refusal and leaves the same
// pending streamers and location records; Drive advances the clock, a tick
// at a time, until nothing is pending.
func TestLocateUnderQuotaIsDeterministic(t *testing.T) {
	const burst = 10
	cfg := worldsim.DefaultConfig(31)
	cfg.Streamers = 4 * burst
	cfg.Days = 1
	cfg.LocatableFrac = 1.0
	world := worldsim.New(cfg)
	ids := make([]string, 0, len(world.Streamers))
	for _, st := range world.Streamers {
		ids = append(ids, st.ID)
	}
	sort.Strings(ids)

	round := func(concurrency int) string {
		platform := twitchsim.New(world)
		defer platform.Close()
		platform.SetAPIRate(burst/TickEvery.Seconds(), burst) // a tick refills the bucket
		p := New(platform.URL(), 1)
		p.Concurrency = concurrency
		for _, st := range world.Streamers {
			p.pending[st.ID] = st.Username
		}
		if _, refused := p.LocateStreamers(platform.Now()); !refused {
			t.Fatalf("Concurrency %d: a round over the quota reports no refusal", concurrency)
		}
		var left []string
		for id := range p.pending {
			left = append(left, id)
		}
		sort.Strings(left)
		if !reflect.DeepEqual(left, ids[burst:]) {
			t.Fatalf("Concurrency %d: pending after the round %v, want the sorted streamers after the first %d", concurrency, left, burst)
		}
		var sb strings.Builder
		for _, id := range ids {
			rec, ok := p.located[p.Anonymize(id)]
			fmt.Fprintf(&sb, "%s %v %+v\n", id, ok, rec)
		}

		start := platform.Now()
		if err := Drive(platform, p, nil, 0, TickEvery, nil); err != nil {
			t.Fatal(err)
		}
		if n := len(p.pending); n != 0 {
			t.Fatalf("Concurrency %d: %d streamers pending after Drive", concurrency, n)
		}
		if got, want := platform.Now().Sub(start), 3*TickEvery; got != want {
			t.Fatalf("Concurrency %d: Drive advanced the clock %v, want %v (one tick per refused round)", concurrency, got, want)
		}
		return sb.String()
	}
	serial := round(1)
	if strings.Count(serial, " true ") != burst {
		t.Fatalf("the first round left location records for other than %d streamers:\n%s", burst, serial)
	}
	for run := 0; run < 5; run++ { // a prefix that depends on the schedule shows in some runs only
		if got := round(8); got != serial {
			t.Fatalf("Concurrency 8 left other location records than 1:\n%s\nvs\n%s", got, serial)
		}
	}
}

func TestMoverLocationHistory(t *testing.T) {
	// §3.1.1: a streamer who moves and updates their profile gets a second
	// location in the pipeline's history, and LocationAt resolves the
	// location valid at a given time. Relocation rounds are driven
	// directly (no thumbnail download needed to exercise this logic).
	cfg := worldsim.DefaultConfig(31)
	cfg.Streamers = 400
	cfg.Days = 4
	cfg.LocatableFrac = 1.0
	cfg.MoverFrac = 0.5
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)

	p := New(platform.URL(), 1)
	for day := 0; day <= cfg.Days; day++ {
		for _, st := range world.Streamers {
			p.pending[st.ID] = st.Username
		}
		p.LocateStreamers(platform.Now())
		platform.Advance(24*time.Hour + time.Minute)
	}

	multi := 0
	for _, st := range world.Streamers {
		anon := p.Anonymize(st.ID)
		rec := p.located[anon]
		if rec == nil || len(rec.hist) < 2 {
			continue
		}
		multi++
		if st.MovedTo == nil {
			t.Errorf("non-mover %s has %d locations", st.ID, len(rec.hist))
		}
		early, ok1 := p.LocationAt(anon, cfg.Start)
		late, ok2 := p.LocationAt(anon, platform.Now())
		if !ok1 || !ok2 {
			t.Fatal("history lookup failed")
		}
		if early == late {
			t.Fatalf("history has %d entries but lookups agree: %v", len(rec.hist), early)
		}
	}
	if multi == 0 {
		t.Fatal("no streamer accumulated multiple locations")
	}
	t.Logf("streamers with multiple locations: %d", multi)
}

// keyRecorder is a KV that records the key of every write it passes on.
type keyRecorder struct {
	kvstore.KV
	mu      sync.Mutex
	written map[string]bool
}

func (k *keyRecorder) wrote(key string) {
	k.mu.Lock()
	k.written[key] = true
	k.mu.Unlock()
}

func (k *keyRecorder) Set(key, value string) { k.wrote(key); k.KV.Set(key, value) }
func (k *keyRecorder) Del(key string) bool   { k.wrote(key); return k.KV.Del(key) }
func (k *keyRecorder) HSet(key, field, value string) bool {
	k.wrote(key)
	return k.KV.HSet(key, field, value)
}
func (k *keyRecorder) HDel(key, field string) bool { k.wrote(key); return k.KV.HDel(key, field) }
func (k *keyRecorder) RPush(key string, values ...string) int {
	k.wrote(key)
	return k.KV.RPush(key, values...)
}
func (k *keyRecorder) LPop(key string) (string, bool) { k.wrote(key); return k.KV.LPop(key) }

// TestStoreHoldsFleetStateOnly: a whole run — download, drains, location
// rounds — writes the key-value store under the download module's four keys
// and no other. Pending lookups, location histories and tags are the
// pipeline's and the coordinator's own, so none of them reaches a store the
// fleet can read.
func TestStoreHoldsFleetStateOnly(t *testing.T) {
	cfg := worldsim.DefaultConfig(23)
	cfg.Streamers = 40
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	platform := twitchsim.New(worldsim.New(cfg))
	t.Cleanup(platform.Close)
	kv := &keyRecorder{KV: kvstore.New(), written: map[string]bool{}}
	p := NewWithKV(platform.URL(), 2, kv)
	platform.Advance(23 * time.Hour)
	if err := Drive(platform, p, nil, 3*30, TickEvery, nil); err != nil {
		t.Fatal(err)
	}
	if p.Extracted == 0 || p.Located == 0 || p.Unlocated == 0 {
		t.Fatalf("the run measured %d readings, located %d streamers and failed %d", p.Extracted, p.Located, p.Unlocated)
	}
	fleet := map[string]bool{download.KeyActive: true, download.KeyQueue: true,
		download.KeyOffline: true, download.KeyClaimed: true}
	for key := range kv.written {
		if !fleet[key] {
			t.Errorf("the run wrote store key %q, which is not fleet state", key)
		}
	}
	if len(kv.written) == 0 {
		t.Fatal("the run wrote nothing to the store")
	}
}

// usersCounter counts the /helix/users requests that pass through it.
type usersCounter struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *usersCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/helix/users" {
		c.n.Add(1)
	}
	return c.base.RoundTrip(req)
}

// TestRelocateEvery: a streamer pending again less than relocateEvery after
// its lookup leaves pending without a request to the API; at relocateEvery
// it is described again. The same at Concurrency 1 and 8.
func TestRelocateEvery(t *testing.T) {
	cfg := worldsim.DefaultConfig(31)
	cfg.Streamers = 12
	cfg.Days = 2
	cfg.LocatableFrac = 1.0
	world := worldsim.New(cfg)
	for _, concurrency := range []int{1, 8} {
		platform := twitchsim.New(world)
		p := New(platform.URL(), 1)
		p.Concurrency = concurrency
		users := &usersCounter{base: http.DefaultTransport}
		p.API.HTTP.Transport = users
		round := func(wantRequests int64) {
			t.Helper()
			for _, st := range world.Streamers {
				p.pending[st.ID] = st.Username
			}
			before := users.n.Load()
			if _, refused := p.LocateStreamers(platform.Now()); refused {
				t.Fatalf("Concurrency %d: the quota refused a lookup", concurrency)
			}
			if got := users.n.Load() - before; got != wantRequests {
				t.Errorf("Concurrency %d at %s: %d /helix/users requests, want %d", concurrency, platform.Now(), got, wantRequests)
			}
			if len(p.pending) != 0 {
				t.Errorf("Concurrency %d at %s: %d streamers left pending", concurrency, platform.Now(), len(p.pending))
			}
		}
		n := int64(len(world.Streamers))
		round(n)
		located := p.Located
		platform.Advance(relocateEvery - time.Second)
		round(0)
		if p.Located != located {
			t.Errorf("Concurrency %d: a round of recent streamers located %d more", concurrency, p.Located-located)
		}
		platform.Advance(time.Second)
		round(n)
		platform.Close()
	}
}

// TestTagsLiveWhileLiveOrPending: a country tag is read by the lookup that
// ends a streamer's pending measurements, which may come after it went
// offline or, when the quota refuses it, rounds later; and again by the next
// lookup of a streamer that stays live. So a streamer holds its tag exactly
// while it is live or pending. The run locates after every drain; past its
// world's day, under a quota of one request a tick, so offline streamers
// wait pending across rounds. At the end, with every streamer offline and
// looked up, no tag is left.
func TestTagsLiveWhileLiveOrPending(t *testing.T) {
	cfg := worldsim.DefaultConfig(4)
	cfg.Streamers = 40
	cfg.Days = 1
	cfg.LocatableFrac = 0.8
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)
	p := New(platform.URL(), 2)
	// check holds every live or pending streamer to its tag and, after a
	// round, every other streamer to none (between rounds a tag may outlive
	// the go-live by up to a round: the drain after the offline notice can
	// still pend a lookup). It counts the tags kept for an offline
	// streamer's pending lookup.
	check := func(when string, i int, exact bool) (heldOffline int) {
		active := p.KV.HGetAll(download.KeyActive)
		for _, st := range world.Streamers {
			_, live := active[st.ID]
			_, pending := p.pending[st.ID]
			want := ""
			if live || pending {
				want = st.Profile.CountryTag
			} else if !exact {
				continue
			}
			if got := p.Coordinator.Tag(st.ID); got != want {
				t.Fatalf("tick %d, %s: streamer %s (live %v, pending %v) has tag %q, want %q",
					i, when, st.ID, live, pending, got, want)
			}
			if want != "" && !live {
				heldOffline++
			}
		}
		return heldOffline
	}
	const day = 24 * 30
	held, refusals := 0, 0
	err := Drive(platform, p, nil, day+300, TickEvery, func(i int) error {
		if i%DrainEvery != 0 {
			return nil
		}
		if i == day {
			platform.SetAPIRate(1/TickEvery.Seconds(), 2)
		}
		held += check("before the round", i, false)
		if _, refused := p.LocateStreamers(platform.Now()); refused {
			refusals++
		}
		check("after the round", i, true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if held == 0 || refusals == 0 || p.Located == 0 || len(p.pending) != 0 {
		t.Fatalf("%d refused rounds, %d tags held for offline lookups; the run located %d streamers and left %d pending",
			refusals, held, p.Located, len(p.pending))
	}
	if active := p.KV.HGetAll(download.KeyActive); len(active) != 0 {
		t.Fatalf("%d streamers still live at the end", len(active))
	}
	check("at the end", day+300, true)
}
