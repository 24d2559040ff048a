package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tero/internal/core"
	"tero/internal/geo"
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
		loc, ok := p.LocationOf(p.Anonymize(st.ID))
		if !ok {
			continue
		}
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

func TestLocationCodec(t *testing.T) {
	for _, l := range []struct{ city, region, country string }{
		{"Chicago", "Illinois", "United States"},
		{"", "Ontario", "Canada"},
		{"", "", "France"},
		{"", "", ""},
	} {
		in := decodeLocation(encodeLocation(decodeLocation(l.city + "|" + l.region + "|" + l.country)))
		if in.City != l.city || in.Region != l.region || in.Country != l.country {
			t.Fatalf("roundtrip failed: %+v", in)
		}
	}
}

func TestLocationCodecEscaping(t *testing.T) {
	// Fields containing the separator or the escape character must survive
	// a round-trip instead of silently shifting into the wrong field.
	for _, l := range []geo.Location{
		{City: "Foo|Bar", Region: "R", Country: "C"},
		{City: "a|b|c", Region: "", Country: "x|"},
		{City: `back\slash`, Region: `\|`, Country: `trailing\`},
		{City: "|", Region: "|", Country: "|"},
		{City: "plain", Region: "no specials", Country: "here"},
	} {
		got := decodeLocation(encodeLocation(l))
		if got != l {
			t.Fatalf("escaped roundtrip: got %+v want %+v", got, l)
		}
	}
}

// FuzzDecodeLocation feeds decodeLocation arbitrary strings — a "loc:" or
// "lochist:" value is whatever the key-value store hands back. The committed
// corpus (testdata/fuzz/FuzzDecodeLocation) is plain, escaped and malformed
// encodings. Oracles: it never panics, and the location it decodes, whatever
// its fields hold, survives encodeLocation → decodeLocation unchanged.
func FuzzDecodeLocation(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		l := decodeLocation(s)
		if got := decodeLocation(encodeLocation(l)); got != l {
			t.Fatalf("%q decodes to %+v, which round-trips to %+v", s, l, got)
		}
	})
}

// TestLocateUnderQuotaIsDeterministic: with more streamers pending than the
// API quota holds, one location round at Concurrency 1 and at 8 describes
// the same sorted prefix, stops at the first refusal and leaves the same
// pending streamers and loc:* keys; Drive advances the clock, a tick at a
// time, until nothing is pending.
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
			p.KV.HSet("pending-location", st.ID, st.Username)
		}
		if _, refused := p.LocateStreamers(platform.Now()); !refused {
			t.Fatalf("Concurrency %d: a round over the quota reports no refusal", concurrency)
		}
		var left []string
		for id := range p.KV.HGetAll("pending-location") {
			left = append(left, id)
		}
		sort.Strings(left)
		if !reflect.DeepEqual(left, ids[burst:]) {
			t.Fatalf("Concurrency %d: pending after the round %v, want the sorted streamers after the first %d", concurrency, left, burst)
		}
		var sb strings.Builder
		for _, id := range ids {
			loc, ok := p.KV.Get("loc:" + p.Anonymize(id))
			fmt.Fprintf(&sb, "%s %v %q\n", id, ok, loc)
		}

		start := platform.Now()
		if err := Drive(platform, p, nil, 0, TickEvery, nil); err != nil {
			t.Fatal(err)
		}
		if n := len(p.KV.HGetAll("pending-location")); n != 0 {
			t.Fatalf("Concurrency %d: %d streamers pending after Drive", concurrency, n)
		}
		if got, want := platform.Now().Sub(start), 3*TickEvery; got != want {
			t.Fatalf("Concurrency %d: Drive advanced the clock %v, want %v (one tick per refused round)", concurrency, got, want)
		}
		return sb.String()
	}
	serial := round(1)
	if strings.Count(serial, " true ") != burst {
		t.Fatalf("the first round left loc:* keys for other than %d streamers:\n%s", burst, serial)
	}
	for run := 0; run < 5; run++ { // a prefix that depends on the schedule shows in some runs only
		if got := round(8); got != serial {
			t.Fatalf("Concurrency 8 left other loc:* keys than 1:\n%s\nvs\n%s", got, serial)
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
			p.KV.HSet("pending-location", st.ID, st.Username)
		}
		p.LocateStreamers(platform.Now())
		platform.Advance(24*time.Hour + time.Minute)
	}

	multi := 0
	for _, st := range world.Streamers {
		anon := p.Anonymize(st.ID)
		hist := p.KV.HGetAll("lochist:" + anon)
		if len(hist) < 2 {
			continue
		}
		multi++
		if st.MovedTo == nil {
			t.Errorf("non-mover %s has %d locations", st.ID, len(hist))
		}
		early, ok1 := p.LocationAt(anon, cfg.Start)
		late, ok2 := p.LocationAt(anon, platform.Now())
		if !ok1 || !ok2 {
			t.Fatal("history lookup failed")
		}
		if early == late {
			t.Fatalf("history has %d entries but lookups agree: %v", len(hist), early)
		}
	}
	if multi == 0 {
		t.Fatal("no streamer accumulated multiple locations")
	}
	t.Logf("streamers with multiple locations: %d", multi)
}
