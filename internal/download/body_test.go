package download

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBodyOversizeIsBounded: the CDN, not the downloader, decides how many
// bytes a response carries, so the read is capped at maxThumbBytes whether
// the length is declared or not. Either way the cycle fails without in-place
// retries (a retry would be offered the same body), the streamer takes a
// strike, nothing is stored and the oversize counter moves.
func TestBodyOversizeIsBounded(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	head := func(w http.ResponseWriter) {
		w.Header().Set("X-Thumbnail-Seq", "7")
		w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
	}
	cases := []struct {
		name string
		get  func(w http.ResponseWriter, sent *atomic.Int64)
		// maxSent bounds what the server got to write before the client
		// hung up: the downloader must not have drained the stream.
		maxSent int64
	}{
		{
			name: "declared Content-Length above the cap",
			get: func(w http.ResponseWriter, sent *atomic.Int64) {
				// 4 GiB declared, a few bytes sent: the downloader must
				// refuse on the header alone, before sizing a slice by it.
				w.Header().Set("Content-Length", strconv.FormatInt(4<<30, 10))
				n, _ := w.Write([]byte("P5 65536 65536 255\n"))
				sent.Add(int64(n))
			},
			maxSent: 64,
		},
		{
			name: "unknown length that never ends",
			get: func(w http.ResponseWriter, sent *atomic.Int64) {
				// No Content-Length: chunked. Streams until the client goes
				// away (bounded at 8× the cap so a downloader that reads it
				// all fails the test instead of hanging it).
				chunk := make([]byte, 64<<10)
				for sent.Load() < 8*maxThumbBytes {
					n, err := w.Write(chunk)
					sent.Add(int64(n))
					if err != nil {
						return
					}
				}
			},
			// The cap, plus what fits in flight in socket and bufio buffers.
			maxSent: 2 * maxThumbBytes,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sent atomic.Int64
			done := make(chan struct{}, 1)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				head(w)
				if r.Method == http.MethodGet {
					tc.get(w, &sent)
					done <- struct{}{}
				}
			}))
			defer srv.Close()

			d, store, _ := newTestDownloader()
			d.assigned["s1"] = &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
			before := mBodyOversize.Value()

			err := d.PollOnce(now)
			if err == nil || !strings.Contains(err.Error(), errBodyOversize.Error()) {
				t.Fatalf("PollOnce err = %v, want %q", err, errBodyOversize)
			}
			if d.Retries != 0 {
				t.Fatalf("oversize body was retried in place %d times", d.Retries)
			}
			if tr := d.assigned["s1"]; tr == nil || tr.strikes != 1 || !tr.next.After(now) {
				t.Fatalf("streamer not struck and backed off: %+v", tr)
			}
			if store.Size(ThumbBucket) != 0 || d.Downloads != 0 {
				t.Fatalf("oversize body stored: %d objects", store.Size(ThumbBucket))
			}
			if got := mBodyOversize.Value() - before; got != 1 {
				t.Fatalf("download_body_oversize_total moved by %d, want 1", got)
			}
			<-done // the handler returns once its writes fail: the client hung up
			if got := sent.Load(); got > tc.maxSent {
				t.Fatalf("server sent %d bytes before the client gave up, want ≤ %d", got, tc.maxSent)
			}
		})
	}
}

// TestBodyReadShapes: the three ways a well-behaved CDN delivers a body all
// behave as they did when the read was io.ReadAll — the bytes that reach the
// store are exactly the bytes sent, a body short of its Content-Length is a
// transient error retried in place, and a chunked response (no declared
// length) is read to its end. With a declared length the stored slice is
// the one exact-size allocation the read made: no copy, no spare capacity.
func TestBodyReadShapes(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	next := now.Add(5 * time.Minute)
	body := append([]byte("P5\n320 180\n255\n"), bytes.Repeat([]byte{0x5a}, 320*180)...)

	cases := []struct {
		name        string
		handler     func(n int, w http.ResponseWriter, r *http.Request)
		wantRetries int
		wantExact   bool // cap(stored) == len(body)
	}{
		{
			name: "exact Content-Length",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				serveThumb(w, r, 7, next, body)
			},
			wantExact: true,
		},
		{
			name: "short body, then whole",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && n == 2 {
					w.Header().Set("X-Thumbnail-Seq", "7")
					w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
					w.Write(body[:len(body)/2])
					return
				}
				serveThumb(w, r, 7, next, body)
			},
			wantRetries: 1,
			wantExact:   true,
		},
		{
			name: "chunked, no Content-Length",
			handler: func(n int, w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Thumbnail-Seq", "7")
				w.Header().Set("X-Next-Thumbnail", next.Format(time.RFC3339))
				if r.Method == http.MethodHead {
					return
				}
				w.Write(body[:1000])
				w.(http.Flusher).Flush()
				w.Write(body[1000:])
			},
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
			tr := &tracked{a: Assignment{StreamerID: "s1", URL: srv.URL + "/thumb/s1.pgm"}}
			d.assigned["s1"] = tr
			before := mBodyOversize.Value()
			if err := d.fetch("s1", tr, now); err != nil {
				t.Fatalf("fetch: %v", err)
			}
			if d.Retries != tc.wantRetries {
				t.Fatalf("retries = %d, want %d", d.Retries, tc.wantRetries)
			}
			obj, err := store.Get(ThumbBucket, "s1/7.pgm")
			if err != nil {
				t.Fatalf("s1/7.pgm not stored: %v", err)
			}
			if !bytes.Equal(obj.Data, body) {
				t.Fatalf("stored %d bytes, differ from the %d sent", len(obj.Data), len(body))
			}
			if tc.wantExact && cap(obj.Data) != len(body) {
				t.Fatalf("stored slice has cap %d for a %d-byte body: not one exact-size read", cap(obj.Data), len(body))
			}
			if d.Downloads != 1 || mBodyOversize.Value() != before {
				t.Fatalf("downloads = %d, oversize moved by %d", d.Downloads, mBodyOversize.Value()-before)
			}
		})
	}
}
