package dist

import (
	"strings"
	"testing"

	"tero/internal/download"
	"tero/internal/imageproc"
	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/pipeline"
)

// recordingObjects is the coordinator's object store as a worker sees it,
// with every call written down.
type recordingObjects struct {
	objstore.API
	ops []string // "Put dist-results <key>", ...
}

func (r *recordingObjects) Put(bucket, key string, data []byte, meta map[string]string) string {
	r.ops = append(r.ops, "Put "+bucket+" "+key)
	return r.API.Put(bucket, key, data, meta)
}

func (r *recordingObjects) Get(bucket, key string) (*objstore.Object, error) {
	r.ops = append(r.ops, "Get "+bucket+" "+key)
	return r.API.Get(bucket, key)
}

func (r *recordingObjects) Head(bucket, key string) (*objstore.Object, error) {
	r.ops = append(r.ops, "Head "+bucket+" "+key)
	return r.API.Head(bucket, key)
}

func (r *recordingObjects) Delete(bucket, key string) error {
	r.ops = append(r.ops, "Delete "+bucket+" "+key)
	return r.API.Delete(bucket, key)
}

func (r *recordingObjects) List(bucket, prefix string) []string {
	r.ops = append(r.ops, "List "+bucket+" "+prefix)
	return r.API.List(bucket, prefix)
}

func (r *recordingObjects) Size(bucket string) int {
	r.ops = append(r.ops, "Size "+bucket)
	return r.API.Size(bucket)
}

// TestWorkRoundKeepsThumbnailsLocal drives one worker round against a live
// platform and a recording wire store. Thumbnails are fetched and extracted,
// yet the only frames that cross the wire are one result Put per thumbnail
// and one quarantine Put for the corrupt one — no thumbnail Put, no Delete,
// no read — and a repeat round quarantines nothing twice.
func TestWorkRoundKeepsThumbnailsLocal(t *testing.T) {
	platform := newTestPlatform(t, 41)
	st := kvstore.New()
	p := pipeline.NewWithKV(platform.URL(), 1, st)
	if err := p.Coordinator.PollOnce(); err != nil {
		t.Fatalf("seed queue: %v", err)
	}
	if st.LLen(download.KeyQueue) == 0 {
		t.Fatal("no live streamer queued: the round would fetch nothing")
	}
	st.HSet(KeyWorkers, "w1", "1")

	wire := &recordingObjects{API: objstore.New()}
	local := objstore.New()
	d := download.NewDownloader("w1:dl0", st, local)
	d.Claim = download.ClaimNone
	d.WindowStamp = true
	dls := []*download.Downloader{d}
	const corruptKey = "zz-corrupt/0001.pgm"
	local.Put(download.ThumbBucket, corruptKey, []byte("P5 truncated"), map[string]string{"game": "lol"})

	var stats WorkerStats
	round := func() {
		t.Helper()
		err := workRound(WorkerConfig{ID: "w1"}, st, wire, local, imageproc.New(), dls,
			platform.Now(), &stats, func() bool { return false })
		if err != nil {
			t.Fatal(err)
		}
	}
	round()
	if stats.Claims == 0 || d.Downloads == 0 {
		t.Fatalf("round fetched nothing: %+v, %d downloads", stats, d.Downloads)
	}

	results, quarantined := 0, 0
	for _, op := range wire.ops {
		switch {
		case op == "Put "+pipeline.QuarantineBucket+" "+corruptKey:
			quarantined++
		case strings.HasPrefix(op, "Put "+ResultBucket+" "):
			results++
		default:
			t.Errorf("unexpected wire operation %q", op)
		}
	}
	if quarantined != 1 {
		t.Errorf("corrupt thumbnail quarantined %d times, want once", quarantined)
	}
	if results != d.Downloads+1 {
		t.Errorf("%d results pushed for %d fetched thumbnails + 1 corrupt", results, d.Downloads)
	}
	if o, err := wire.API.Get(pipeline.QuarantineBucket, corruptKey); err != nil ||
		string(o.Data) != "P5 truncated" || o.Meta["game"] != "lol" {
		t.Errorf("quarantined object = %+v, %v", o, err)
	}
	if n := local.Size(download.ThumbBucket); n != 0 {
		t.Errorf("%d thumbnails left in the worker's local bucket after the round", n)
	}

	// A repeat round at the same frozen instant has nothing due and nothing
	// left to drain: the wire stays silent.
	sent := len(wire.ops)
	round()
	if len(wire.ops) != sent {
		t.Errorf("repeat round sent %q", wire.ops[sent:])
	}
}
