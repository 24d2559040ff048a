package download

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tero/internal/kvstore"
	"tero/internal/objstore"
	"tero/internal/worldsim"
)

// serveThumb writes a well-formed CDN thumbnail response.
func serveThumb(w http.ResponseWriter, r *http.Request, seq int, next time.Time, body []byte) {
	w.Header().Set("X-Thumbnail-Seq", strconv.Itoa(seq))
	w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
	w.Header().Set("X-Thumbnail-Digest", objstore.ChecksumHex(body))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(body)
}

// newTestDownloader builds a downloader with millisecond retry pauses.
func newTestDownloader() (*Downloader, *objstore.Store, kvstore.KV) {
	kv := kvstore.New()
	store := objstore.New()
	d := NewDownloader("T", kv, store)
	d.RetryWait = time.Millisecond
	return d, store, kv
}

func TestFetchFaultRecovery(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	body := []byte("P5 4 2 255\n01234567")
	good := func(w http.ResponseWriter, r *http.Request) { serveThumb(w, r, 7, next, body) }

	cases := []struct {
		name string
		// handler sees the 1-based request ordinal; the first request of a
		// cycle is the HEAD.
		handler     func(n int, w http.ResponseWriter, r *http.Request)
		timeout     time.Duration // client timeout override (stall case)
		wantErr     string        // "" = fetch must succeed
		wantStored  bool
		wantRetries bool
	}{
		{
			name: "recovers from 500",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if n == 1 {
					http.Error(w, "boom", http.StatusInternalServerError)
					return
				}
				good(w, r)
			},
			wantStored: true, wantRetries: true,
		},
		{
			name: "recovers from connection reset",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if n == 1 {
					panic(http.ErrAbortHandler)
				}
				good(w, r)
			},
			wantStored: true, wantRetries: true,
		},
		{
			name: "recovers from stall via client timeout",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if n == 1 {
					time.Sleep(300 * time.Millisecond)
				}
				good(w, r)
			},
			timeout:    50 * time.Millisecond,
			wantStored: true, wantRetries: true,
		},
		{
			name: "recovers from truncated body",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && n <= 2 {
					// Declare the full length, send half: the client's read
					// fails with an unexpected EOF.
					w.Header().Set("X-Thumbnail-Seq", "7")
					w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
					w.Write(body[:len(body)/2])
					return
				}
				good(w, r)
			},
			wantStored: true, wantRetries: true,
		},
		{
			name: "recovers from corrupt body via digest",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && n <= 2 {
					// Digest of the true body, corrupted bytes on the wire.
					bad := append([]byte(nil), body...)
					bad[3] ^= 0xA5
					w.Header().Set("X-Thumbnail-Seq", "7")
					w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
					w.Header().Set("X-Thumbnail-Digest", objstore.ChecksumHex(body))
					w.Header().Set("Content-Length", strconv.Itoa(len(bad)))
					w.Write(bad)
					return
				}
				good(w, r)
			},
			wantStored: true, wantRetries: true,
		},
		{
			name: "recovers from missing GET seq",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && n <= 2 {
					w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
					w.Write(body)
					return
				}
				good(w, r)
			},
			wantStored: true, wantRetries: true,
		},
		{
			name: "recovers from missing X-Next-Thumbnail",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if n == 1 {
					w.Header().Set("X-Thumbnail-Seq", "7")
					return // HEAD without the scheduling header
				}
				good(w, r)
			},
			wantStored: true, wantRetries: true,
		},
		{
			name: "permanent 404 fails without retries",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				http.NotFound(w, r)
			},
			wantErr: "404",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reqs atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.handler(int(reqs.Add(1)), w, r)
			}))
			defer srv.Close()

			d, store, _ := newTestDownloader()
			if tc.timeout > 0 {
				d.HTTP.Timeout = tc.timeout
			}
			tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
			d.assigned["s1"] = tr

			err := d.fetch("s1", tr, now)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("fetch: %v", err)
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("fetch err = %v, want %q", err, tc.wantErr)
				}
			}
			if got := store.Size(ThumbBucket) > 0; got != tc.wantStored {
				t.Fatalf("stored = %v, want %v", got, tc.wantStored)
			}
			if tc.wantStored {
				if _, err := store.Get(ThumbBucket, "s1/7.pgm"); err != nil {
					t.Fatalf("expected s1/7.pgm stored: %v", err)
				}
				if !tr.next.Equal(next) {
					t.Fatalf("next = %v, want %v", tr.next, next)
				}
			}
			if got := d.Retries > 0; got != tc.wantRetries {
				t.Fatalf("retries = %d, wantRetries %v", d.Retries, tc.wantRetries)
			}
		})
	}
}

// TestDigestDetectsTransferDamage fetches a real rendered thumbnail whose
// X-Thumbnail-Digest is the true body's CRC-32C while the wire carries the
// body with one bit flipped, for bits at a stride through the body, and once
// with a 32-bit burst: every attempt must fail with a digest mismatch, store
// nothing and count one corrupt body. An upper-case digest of a clean body
// is accepted.
func TestDigestDetectsTransferDamage(t *testing.T) {
	world := worldsim.New(worldsim.DefaultConfig(1234))
	gs := world.Sessions(world.Streamers[0])[0]
	img, _ := worldsim.RenderDeterministic(gs, 0, worldsim.DefaultRenderOptions())
	var buf bytes.Buffer
	if err := img.EncodePGM(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	digest := objstore.ChecksumHex(body)
	var wire atomic.Pointer[[]byte]
	var header atomic.Pointer[string]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("X-Thumbnail-Seq", "7")
		h.Set("X-Next-Thumbnail", now.Add(5*time.Minute).Format(time.RFC3339))
		h.Set("X-Thumbnail-Digest", *header.Load())
		if r.Method == http.MethodGet {
			w.Write(*wire.Load())
		}
	}))
	defer srv.Close()
	d, store, _ := newTestDownloader()
	fetch := func(sent []byte, hdr string) error {
		wire.Store(&sent)
		header.Store(&hdr)
		tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
		d.assigned["s1"] = tr
		return d.fetchOnce("s1", tr, now)
	}
	damaged := func(what string, sent []byte) {
		t.Helper()
		before := mCorruptBody.Value()
		err := fetch(sent, digest)
		if err == nil || !strings.Contains(err.Error(), "body digest mismatch") {
			t.Fatalf("%s: fetch err = %v, want a body digest mismatch", what, err)
		}
		if n := store.Size(ThumbBucket); n != 0 {
			t.Fatalf("%s: %d thumbnails stored", what, n)
		}
		if got := mCorruptBody.Value() - before; got != 1 {
			t.Fatalf("%s: download_body_corrupt_total rose by %d, want 1", what, got)
		}
	}

	const stride = 8*509 + 3 // bits: lands on every bit position of a byte in turn
	flips := 0
	for bit := 0; bit < 8*len(body); bit += stride {
		sent := bytes.Clone(body)
		sent[bit/8] ^= 1 << (bit % 8)
		damaged(fmt.Sprintf("bit %d flipped", bit), sent)
		flips++
	}
	if flips < 100 {
		t.Fatalf("only %d flips through a %d-byte body", flips, len(body))
	}
	sent := bytes.Clone(body)
	at := len(sent) / 2
	for i := at; i < at+4; i++ {
		sent[i] = ^sent[i]
	}
	damaged("32-bit burst", sent)

	if err := fetch(body, strings.ToUpper(digest)); err != nil {
		t.Fatalf("clean body, upper-case digest %s: %v", strings.ToUpper(digest), err)
	}
	if _, err := store.Get(ThumbBucket, "s1/7.pgm"); err != nil {
		t.Fatalf("clean body not stored: %v", err)
	}
}

func TestFetchExhaustionKeepsSchedule(t *testing.T) {
	// A CDN that never sends X-Next-Thumbnail exhausts the retry budget, but
	// the poll schedule must still advance (the pre-fix code hot-looped the
	// streamer every tick forever).
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Thumbnail-Seq", "1")
	}))
	defer srv.Close()

	d, _, _ := newTestDownloader()
	tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
	d.assigned["s1"] = tr
	err := d.fetch("s1", tr, now)
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if !tr.next.Equal(now.Add(5 * time.Minute)) {
		t.Fatalf("fallback next = %v, want now+5m", tr.next)
	}
	if d.Retries != maxFetchRetries {
		t.Fatalf("retries = %d, want %d", d.Retries, maxFetchRetries)
	}
}

func TestPollOnceIsolatesFailures(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	body := []byte("P5 4 2 255\n01234567")
	goodSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveThumb(w, r, 3, next, body)
	}))
	defer goodSrv.Close()
	badSrv := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer badSrv.Close()

	d, store, _ := newTestDownloader()
	// "aaa" sorts before "zzz": the bad streamer is polled first and must not
	// abort the cycle for the healthy one behind it.
	d.assigned["aaa-bad"] = &tracked{a: Assignment{StreamerID: "aaa-bad", URL: badSrv.URL + "/thumb/b.pgm"}}
	d.assigned["zzz-good"] = &tracked{a: Assignment{StreamerID: "zzz-good", URL: goodSrv.URL + "/thumb/g.pgm"}}

	err := d.PollOnce(now)
	if err == nil || !strings.Contains(err.Error(), "aaa-bad") {
		t.Fatalf("want joined error naming aaa-bad, got %v", err)
	}
	if strings.Contains(err.Error(), "zzz-good") {
		t.Fatalf("healthy streamer in error: %v", err)
	}
	if _, err := store.Get(ThumbBucket, "zzz-good/3.pgm"); err != nil {
		t.Fatalf("healthy streamer starved: %v", err)
	}
	// The failed streamer is backed off, not hot-looped.
	bad := d.assigned["aaa-bad"]
	if !bad.next.After(now) {
		t.Fatalf("failed streamer not backed off: next = %v", bad.next)
	}
	if bad.strikes != 1 {
		t.Fatalf("strikes = %d, want 1", bad.strikes)
	}
}

func TestReleaseAfterMaxStrikes(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	badSrv := httptest.NewServer(http.HandlerFunc(http.NotFound))
	defer badSrv.Close()

	d, _, kv := newTestDownloader()
	a := Assignment{StreamerID: "s1", URL: badSrv.URL + "/thumb/s1.pgm"}
	d.assigned["s1"] = &tracked{a: a}
	kv.HSet(KeyClaimed, "s1", d.ID)

	polls := 0
	for ; d.Assigned() > 0 && polls < 10; polls++ {
		d.PollOnce(now)
		now = now.Add(10 * time.Minute) // past any strike backoff
	}
	if d.Assigned() != 0 {
		t.Fatal("streamer never released")
	}
	if polls != maxStrikes {
		t.Fatalf("released after %d failed polls, want %d", polls, maxStrikes)
	}
	if d.Released != 1 {
		t.Fatalf("Released = %d, want 1", d.Released)
	}
	if _, claimed := kv.HGet(KeyClaimed, "s1"); claimed {
		t.Fatal("claim not dropped on release")
	}
	raw, ok := kv.LPop(KeyQueue)
	if !ok {
		t.Fatal("released assignment not re-queued")
	}
	if got, _ := decodeAssignment(raw); got != a {
		t.Fatalf("re-queued %+v, want %+v", got, a)
	}
}

func TestStrikeBackoffBounded(t *testing.T) {
	if strikeBackoff(1) != 30*time.Second {
		t.Fatalf("strike 1 = %v", strikeBackoff(1))
	}
	if strikeBackoff(2) != time.Minute {
		t.Fatalf("strike 2 = %v", strikeBackoff(2))
	}
	if strikeBackoff(50) != 4*time.Minute {
		t.Fatalf("strike 50 = %v, want 4m cap", strikeBackoff(50))
	}
}

func TestGetSeqIsAuthoritative(t *testing.T) {
	// The thumbnail rotates between HEAD and GET: the stored object must be
	// keyed by the seq of the body actually received, not the HEAD's.
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	body := []byte("P5 4 2 255\n01234567")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			serveThumb(w, r, 5, next, body)
			return
		}
		serveThumb(w, r, 6, next, body)
	}))
	defer srv.Close()

	d, store, _ := newTestDownloader()
	tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
	d.assigned["s1"] = tr
	if err := d.fetch("s1", tr, now); err != nil {
		t.Fatal(err)
	}
	o, err := store.Get(ThumbBucket, "s1/6.pgm")
	if err != nil {
		t.Fatalf("body not stored under GET seq: %v", err)
	}
	if o.Meta["seq"] != "6" {
		t.Fatalf("meta seq = %q, want 6", o.Meta["seq"])
	}
	if tr.lastSeq != "6" {
		t.Fatalf("lastSeq = %q, want 6", tr.lastSeq)
	}
}

// TestCorruptedRepeatCaught: the HEAD drops its seq, so the GET re-fetches
// the thumbnail already stored, and the body arrives damaged. The digest is
// checked before the repeat is recognised: the fetch fails as a corrupt
// body, counted, and nothing is stored; the clean repeat after it is the
// unchanged thumbnail it always was.
func TestCorruptedRepeatCaught(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	body := []byte("P5 4 2 255\n01234567")
	var damaged atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Next-Thumbnail", now.Add(5*time.Minute).Format(time.RFC3339))
		if r.Method == http.MethodHead {
			return // no X-Thumbnail-Seq
		}
		w.Header().Set("X-Thumbnail-Seq", "7")
		w.Header().Set("X-Thumbnail-Digest", objstore.ChecksumHex(body))
		sent := bytes.Clone(body)
		if damaged.Load() {
			sent[len(sent)-1] ^= 0xA5
		}
		w.Write(sent)
	}))
	defer srv.Close()

	d, store, _ := newTestDownloader()
	tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}, lastSeq: "7"}
	d.assigned["s1"] = tr
	damaged.Store(true)
	corrupt, unchanged := mCorruptBody.Value(), mThumbUnchanged.Value()
	if err := d.fetchOnce("s1", tr, now); err == nil || !strings.Contains(err.Error(), "body digest mismatch") {
		t.Fatalf("damaged repeat: fetch err = %v, want a body digest mismatch", err)
	}
	if got := mCorruptBody.Value() - corrupt; got != 1 {
		t.Fatalf("damaged repeat: download_body_corrupt_total rose by %d, want 1", got)
	}
	damaged.Store(false)
	if err := d.fetchOnce("s1", tr, now); err != nil {
		t.Fatalf("clean repeat: %v", err)
	}
	if got := mThumbUnchanged.Value() - unchanged; got != 1 {
		t.Fatalf("clean repeat: counted %d unchanged, want 1", got)
	}
	if n := store.Size(ThumbBucket); n != 0 || tr.lastSeq != "7" {
		t.Fatalf("%d thumbnails stored, lastSeq %q; want 0 and 7", n, tr.lastSeq)
	}
}

func TestSeqResetClampsGap(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	body := []byte("P5 4 2 255\n01234567")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveThumb(w, r, 3, next, body)
	}))
	defer srv.Close()

	d, store, _ := newTestDownloader()
	tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}, lastSeq: "10"}
	d.assigned["s1"] = tr
	if err := d.fetch("s1", tr, now); err != nil {
		t.Fatal(err)
	}
	if d.Misses != 0 {
		t.Fatalf("Misses = %d after a backwards seq reset, want 0", d.Misses)
	}
	if tr.lastSeq != "3" {
		t.Fatalf("lastSeq = %q, want 3", tr.lastSeq)
	}
	if _, err := store.Get(ThumbBucket, "s1/3.pgm"); err != nil {
		t.Fatalf("reset thumbnail not stored: %v", err)
	}
}

func TestOfflineViaGetRedirect(t *testing.T) {
	// HEAD succeeds but the GET hits the offline redirect: the streamer must
	// be dropped and reported exactly like the HEAD-redirect path.
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	body := []byte("P5 4 2 255\n01234567")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			serveThumb(w, r, 5, next, body)
			return
		}
		http.Redirect(w, r, "/offline.pgm", http.StatusFound)
	}))
	defer srv.Close()

	d, store, kv := newTestDownloader()
	tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
	d.assigned["s1"] = tr
	if err := d.fetch("s1", tr, now); err != nil {
		t.Fatal(err)
	}
	if d.Assigned() != 0 {
		t.Fatal("offline streamer still assigned")
	}
	id, ok := kv.LPop(KeyOffline)
	if !ok || id != "s1" {
		t.Fatalf("offline notice = %q, %v", id, ok)
	}
	if store.Size(ThumbBucket) != 0 {
		t.Fatal("stored a thumbnail for an offline streamer")
	}
}
