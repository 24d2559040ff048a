package twitchsim

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"tero/internal/imaging"
	"tero/internal/worldsim"
)

func testPlatform(t *testing.T, streamers int) (*Platform, *worldsim.World) {
	t.Helper()
	cfg := worldsim.DefaultConfig(21)
	cfg.Streamers = streamers
	cfg.Days = 1
	world := worldsim.New(cfg)
	p := New(world)
	t.Cleanup(p.Close)
	return p, world
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestStreamsAPIPagination(t *testing.T) {
	p, _ := testPlatform(t, 200)
	// Go to a busy hour.
	p.Advance(25 * time.Hour)

	var all []StreamInfo
	cursor := ""
	pages := 0
	for {
		url := p.URL() + "/helix/streams?first=10"
		if cursor != "" {
			url += "&after=" + cursor
		}
		var resp struct {
			Data       []StreamInfo `json:"data"`
			Pagination struct {
				Cursor string `json:"cursor"`
			} `json:"pagination"`
		}
		getJSON(t, url, &resp)
		all = append(all, resp.Data...)
		pages++
		if resp.Pagination.Cursor == "" {
			break
		}
		cursor = resp.Pagination.Cursor
		if pages > 100 {
			t.Fatal("pagination never terminates")
		}
	}
	if len(all) == 0 {
		t.Skip("no live streams at this hour")
	}
	// No duplicates across pages.
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.UserID] {
			t.Fatalf("duplicate %s across pages", s.UserID)
		}
		seen[s.UserID] = true
		if s.ThumbnailURL == "" || s.GameName == "" {
			t.Fatalf("incomplete row %+v", s)
		}
	}
}

func TestThumbnailLifecycle(t *testing.T) {
	p, world := testPlatform(t, 150)
	p.Advance(25 * time.Hour)

	// Find a live streamer via the API.
	var resp struct {
		Data []StreamInfo `json:"data"`
	}
	getJSON(t, p.URL()+"/helix/streams?first=100", &resp)
	if len(resp.Data) == 0 {
		t.Skip("nobody live")
	}
	url := resp.Data[0].ThumbnailURL

	// HEAD exposes the next-thumbnail time and sequence.
	req, _ := http.NewRequest(http.MethodHead, url, nil)
	head, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status %d", head.StatusCode)
	}
	next, err := time.Parse(time.RFC3339, head.Header.Get("X-Next-Thumbnail"))
	if err != nil {
		t.Fatalf("bad X-Next-Thumbnail: %v", err)
	}
	if !next.After(p.Now()) {
		t.Fatal("next thumbnail should be in the future")
	}

	// GET decodes as a thumbnail-sized PGM and is byte-stable on re-GET
	// (the CDN overwrites in place, never mutates a published thumbnail).
	read := func() []byte {
		g, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Body.Close()
		body, _ := io.ReadAll(g.Body)
		return body
	}
	b1 := read()
	b2 := read()
	if !bytes.Equal(b1, b2) {
		t.Fatal("thumbnail not deterministic across GETs")
	}
	img, err := imaging.DecodePGM(bytes.NewReader(b1))
	if err != nil || img.W != 320 || img.H != 180 {
		t.Fatalf("bad thumbnail: %v (%dx%d)", err, img.W, img.H)
	}

	// After the streamer's whole world ends, the URL redirects to offline.
	p.Advance(72 * time.Hour)
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	r2, err := noRedirect.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusFound {
		t.Fatalf("offline status %d, want 302", r2.StatusCode)
	}
	_ = world
}

// TestRateLimiting: the API quota counts platform time. With one token a
// minute, a second request at the same virtual instant is refused, with
// Ratelimit-Reset at the instant the next token is due, on either API route;
// advancing the clock a minute refills it, with no wall-clock wait.
func TestRateLimiting(t *testing.T) {
	p, world := testPlatform(t, 30)
	p.SetAPIRate(1.0/60, 1)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(p.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	users := "/helix/users?id=" + world.Streamers[0].ID
	if resp := get("/helix/streams"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %s", resp.Status)
	}
	for _, path := range []string{"/helix/streams", users} {
		resp := get(path)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s at a frozen instant: %s, want 429", path, resp.Status)
		}
		want := strconv.FormatInt(p.Now().Add(time.Minute).Unix(), 10)
		if got := resp.Header.Get("Ratelimit-Reset"); got != want {
			t.Fatalf("%s: Ratelimit-Reset %q, want %q", path, got, want)
		}
	}
	p.Advance(time.Minute)
	if resp := get(users); resp.StatusCode != http.StatusOK {
		t.Fatalf("a virtual minute later: %s, want 200", resp.Status)
	}
}

func TestUsersEndpoint(t *testing.T) {
	p, world := testPlatform(t, 20)
	st := world.Streamers[0]
	var resp struct {
		Data []struct {
			ID          string `json:"id"`
			Login       string `json:"login"`
			Description string `json:"description"`
		} `json:"data"`
	}
	getJSON(t, p.URL()+"/helix/users?id="+st.ID, &resp)
	if len(resp.Data) != 1 || resp.Data[0].Login != st.Username {
		t.Fatalf("users by id = %+v", resp.Data)
	}
	getJSON(t, p.URL()+"/helix/users?login="+st.Username, &resp)
	if len(resp.Data) != 1 || resp.Data[0].ID != st.ID {
		t.Fatalf("users by login = %+v", resp.Data)
	}
	if resp.Data[0].Description != st.Profile.Description {
		t.Fatal("description mismatch")
	}
}

func TestSocialEndpoints(t *testing.T) {
	p, world := testPlatform(t, 400)
	var withTwitter, withImpersonator *worldsim.Streamer
	for _, st := range world.Streamers {
		if st.Profile.HasTwitter && st.Profile.TwitterUsername == st.Username &&
			st.Profile.TwitterBacklink && !st.Profile.Impersonator && withTwitter == nil {
			withTwitter = st
		}
		if st.Profile.Impersonator && st.Profile.ImpersonatorLocation != "" && withImpersonator == nil {
			withImpersonator = st
		}
	}
	if withTwitter == nil {
		t.Fatal("no twitter streamer in world")
	}
	var tw struct {
		Username string   `json:"username"`
		Location string   `json:"location"`
		Links    []string `json:"links"`
	}
	getJSON(t, p.URL()+"/twitter/"+withTwitter.Profile.TwitterUsername, &tw)
	if len(tw.Links) == 0 {
		t.Fatal("backlink missing")
	}
	if withImpersonator != nil {
		getJSON(t, p.URL()+"/twitter/"+withImpersonator.Profile.TwitterUsername, &tw)
		if tw.Location != withImpersonator.Profile.ImpersonatorLocation {
			t.Fatal("impersonator location not served")
		}
		if len(tw.Links) == 0 {
			t.Fatal("impersonator should still link to the streamer")
		}
	}
	// Missing profile.
	resp, _ := http.Get(p.URL() + "/twitter/ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing profile status %d", resp.StatusCode)
	}
}

func TestTagsServed(t *testing.T) {
	p, world := testPlatform(t, 400)
	p.Advance(25 * time.Hour)
	var resp struct {
		Data []StreamInfo `json:"data"`
	}
	getJSON(t, p.URL()+"/helix/streams?first=100", &resp)
	// At least one live streamer with a country tag should surface it.
	tagged := 0
	for _, row := range resp.Data {
		st := world.ByID(row.UserID)
		if st == nil {
			t.Fatalf("unknown streamer %s", row.UserID)
		}
		if st.Profile.CountryTag != "" {
			if len(row.Tags) == 0 || row.Tags[0] != st.Profile.CountryTag {
				t.Fatalf("tag not served for %s", st.ID)
			}
			tagged++
		} else if len(row.Tags) != 0 {
			t.Fatal("phantom tag")
		}
	}
	t.Logf("live=%d tagged=%d", len(resp.Data), tagged)
}
