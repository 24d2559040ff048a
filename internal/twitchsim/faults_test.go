package twitchsim

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"tero/internal/objstore"
)

func TestFaultInjectorDeterministic(t *testing.T) {
	opt := DefaultFaultOptions(7)
	a := newFaultInjector(opt)
	b := newFaultInjector(opt)
	other := newFaultInjector(DefaultFaultOptions(8))

	differs := false
	for i := 0; i < 50; i++ {
		uri := fmt.Sprintf("/thumb/s%d-320x180.pgm", i%5)
		da := a.decide(opt.CDN, uri, true)
		db := b.decide(opt.CDN, uri, true)
		if da != db {
			t.Fatalf("same seed diverged at %s #%d: %+v vs %+v", uri, i, da, db)
		}
		if da != other.decide(opt.CDN, uri, true) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical 50-decision schedules")
	}
}

// corruptionExcluded checks that a CDN body fault mix with corruption
// certain, plus the fault other, never corrupts a response the other fault
// strikes, and still corrupts the rest.
func corruptionExcluded(t *testing.T, opt FaultOptions, other func(reqFaults) bool) {
	t.Helper()
	fi := newFaultInjector(opt)
	struck, corrupted := 0, 0
	for i := 0; i < 200; i++ {
		d := fi.decide(opt.CDN, fmt.Sprintf("/thumb/s%d.pgm", i%7), true)
		switch {
		case other(d) && d.corrupt:
			t.Fatalf("decision %d corrupts a body it also faults otherwise: %+v", i, d)
		case other(d):
			struck++
		case d.corrupt:
			corrupted++
		default:
			t.Fatalf("decision %d spares a body corruption is certain for: %+v", i, d)
		}
	}
	if struck == 0 || corrupted == 0 {
		t.Fatalf("%d struck by the other fault, %d corrupted: the sweep tested nothing", struck, corrupted)
	}
}

// TestCorruptionSparesTruncatedBody: a truncated body fails its read before
// the digest check, so corrupting it too would be a corruption nobody can
// catch.
func TestCorruptionSparesTruncatedBody(t *testing.T) {
	corruptionExcluded(t, FaultOptions{Seed: 1, CorruptProb: 1, TruncateProb: 0.5},
		func(d reqFaults) bool { return d.truncate })
}

// TestCorruptionSparesSeqlessBody: a GET without its seq header is refused
// before its body is read, so its body is never corrupted.
func TestCorruptionSparesSeqlessBody(t *testing.T) {
	corruptionExcluded(t, FaultOptions{Seed: 1, CorruptProb: 1, DropSeqProb: 0.5},
		func(d reqFaults) bool { return d.dropSeq })
}

func TestFaultRollUniform(t *testing.T) {
	fi := newFaultInjector(FaultOptions{Seed: 3})
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := fi.roll("500", "/thumb/x.pgm", uint64(i))
		if v < 0 || v >= 1 {
			t.Fatalf("roll out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.47 || mean > 0.53 {
		t.Fatalf("roll mean %v, want ~0.5", mean)
	}
}

func TestScaledFaults(t *testing.T) {
	if ScaledFaults(1, 0).Enabled() {
		t.Fatal("rate 0 should disable every fault")
	}
	f := ScaledFaults(1, 100)
	for name, p := range map[string]float64{
		"api_err":  f.API.ErrProb,
		"cdn_err":  f.CDN.ErrProb,
		"truncate": f.TruncateProb,
		"corrupt":  f.CorruptProb,
	} {
		if p != 0.9 {
			t.Fatalf("%s = %v, want clamp to 0.9", name, p)
		}
	}
	if !f.Enabled() {
		t.Fatal("scaled mix should be enabled")
	}
}

// liveThumbURL finds a live streamer's thumbnail URL on a busy platform.
func liveThumbURL(t *testing.T, p *Platform) string {
	t.Helper()
	var resp struct {
		Data []StreamInfo `json:"data"`
	}
	getJSON(t, p.URL()+"/helix/streams?first=100", &resp)
	if len(resp.Data) == 0 {
		t.Skip("nobody live")
	}
	return resp.Data[0].ThumbnailURL
}

// outcome is a comparable signature of one faulted GET.
type outcome struct {
	transportErr bool
	status       int
	bodyLen      int
	hasSeq       bool
	hasNext      bool
	digestOK     bool
}

func observe(client *http.Client, url string) outcome {
	resp, err := client.Get(url)
	if err != nil {
		return outcome{transportErr: true}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	o := outcome{
		status:  resp.StatusCode,
		bodyLen: len(body),
		hasSeq:  resp.Header.Get("X-Thumbnail-Seq") != "",
		hasNext: resp.Header.Get("X-Next-Thumbnail") != "",
	}
	if want := resp.Header.Get("X-Thumbnail-Digest"); want != "" {
		o.digestOK = objstore.ChecksumHex(body) == want
	}
	return o
}

func TestFaultScheduleReplays(t *testing.T) {
	run := func() []outcome {
		p, _ := testPlatform(t, 150)
		p.Advance(25 * time.Hour)
		p.SetFaults(ScaledFaults(5, 1))
		url := liveThumbURL(t, p)
		client := &http.Client{Timeout: 2 * time.Second}
		var outs []outcome
		for i := 0; i < 60; i++ {
			outs = append(outs, observe(client, url))
		}
		if p.FaultsInjected == 0 {
			t.Fatal("no faults injected at rate 1 over 60 requests")
		}
		return outs
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBodyFaultsDetectable(t *testing.T) {
	p, _ := testPlatform(t, 150)
	p.Advance(25 * time.Hour)
	url := liveThumbURL(t, p)

	// Truncation: body shorter than the declared Content-Length.
	p.SetFaults(FaultOptions{Seed: 1, TruncateProb: 1})
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	declared, _ := strconv.Atoi(resp.Header.Get("Content-Length"))
	if readErr == nil && len(body) >= declared {
		t.Fatalf("truncation invisible: got %d bytes of declared %d, read err %v",
			len(body), declared, readErr)
	}

	// Corruption: body contradicts X-Thumbnail-Digest.
	p.SetFaults(FaultOptions{Seed: 1, CorruptProb: 1})
	if o := observe(http.DefaultClient, url); o.digestOK {
		t.Fatal("corrupted body still matches its digest")
	}
	// Fault-free for contrast: digest must verify.
	p.SetFaults(FaultOptions{})
	if o := observe(http.DefaultClient, url); !o.digestOK {
		t.Fatal("clean body fails its digest")
	}

	// Header drops.
	p.SetFaults(FaultOptions{Seed: 1, DropSeqProb: 1, DropNextProb: 1})
	if o := observe(http.DefaultClient, url); o.hasSeq || o.hasNext {
		t.Fatalf("headers survived drop faults: %+v", o)
	}
}

func TestFaultsSpareControlRoutes(t *testing.T) {
	p, _ := testPlatform(t, 40)
	p.Advance(25 * time.Hour)
	f := FaultOptions{
		Seed: 1,
		API:  RouteFaults{ErrProb: 0.9},
		CDN:  RouteFaults{ErrProb: 0.9},
	}
	p.SetFaults(f)
	// The offline sentinel and the social pages must stay reliable: the
	// download and location modules treat them as ground truth.
	for i := 0; i < 30; i++ {
		for _, path := range []string{"/offline.pgm", "/twitter/tw0000001"} {
			resp, err := http.Get(p.URL() + path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("%s faulted with %d", path, resp.StatusCode)
			}
		}
	}
	// Sanity: the API route at 0.9 does fault.
	hit := false
	for i := 0; i < 30 && !hit; i++ {
		resp, err := http.Get(p.URL() + "/helix/streams?first=1")
		if err != nil {
			continue
		}
		resp.Body.Close()
		hit = resp.StatusCode == http.StatusInternalServerError
	}
	if !hit {
		t.Fatal("API route never faulted at ErrProb 0.9")
	}
}
