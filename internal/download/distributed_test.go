package download

import (
	"testing"
	"time"

	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

// TestDistributedDownloadOverRESP runs the coordinator and downloaders the
// way App. A/B deploys them: as independent actors whose only shared state
// is a key-value store reached over TCP (here the RESP server), plus the
// platform reached over HTTP. Nothing is shared in-process.
func TestDistributedDownloadOverRESP(t *testing.T) {
	cfg := worldsim.DefaultConfig(11)
	cfg.Streamers = 60
	cfg.Days = 1
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	t.Cleanup(platform.Close)

	// The shared store lives behind a TCP server.
	srv, err := kvstore.Serve(kvstore.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Each actor gets its own connection, as separate processes would.
	dial := func() kvstore.KV {
		r, err := kvstore.DialStore(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	coord := NewCoordinator(dial(), NewAPIClient(platform.URL()))
	store := objstore.New()
	dls := []*Downloader{
		NewDownloader("A", dial(), store),
		NewDownloader("B", dial(), store),
	}

	platform.Advance(busiestHour(platform.World) - time.Hour)
	drive(t, platform, coord, dls, 4)

	total := 0
	for _, d := range dls {
		total += d.Downloads
	}
	if total < 10 {
		t.Fatalf("distributed downloads = %d, want plenty", total)
	}
	if store.Size(ThumbBucket) != total {
		t.Fatalf("stored %d != downloaded %d", store.Size(ThumbBucket), total)
	}
	// No transport errors on any connection.
	for _, d := range dls {
		if r, ok := d.KV.(*kvstore.RemoteStore); ok && r.Err() != nil {
			t.Fatalf("downloader %s transport error: %v", d.ID, r.Err())
		}
	}
	if r, ok := coord.KV.(*kvstore.RemoteStore); ok && r.Err() != nil {
		t.Fatalf("coordinator transport error: %v", r.Err())
	}
}
