package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// recorded is one platform response as the pipeline saw it.
type recorded struct {
	status int
	header http.Header // verbatim, minus Date
	body   []byte
}

// tape is every response the reference pass received, grouped by request
// ("METHOD request-URI") in the order that request was made. Replay answers
// the k-th request for a key with the k-th response, so a pass that asks the
// same questions at the same virtual instants reads identical bytes.
type tape struct {
	mu        sync.Mutex
	responses map[string][]recorded
	count     int
	bytes     int64
}

func newTape() *tape { return &tape{responses: make(map[string][]recorded)} }

func tapeKey(r *http.Request) string { return r.Method + " " + r.URL.RequestURI() }

// recorder is the RoundTripper the reference pass installs on every client
// of the platform (API, each downloader, social lookups).
type recorder struct {
	base http.RoundTripper
	tape *tape
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	h := resp.Header.Clone()
	h.Del("Date")
	key := tapeKey(req)
	r.tape.mu.Lock()
	r.tape.responses[key] = append(r.tape.responses[key], recorded{resp.StatusCode, h, body})
	r.tape.count++
	r.tape.bytes += int64(len(body))
	r.tape.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// replayCDN is the loopback stand-in for the platform: it serves the tape.
type replayCDN struct {
	keys map[string]*replayKey
	srv  *http.Server
	ln   net.Listener

	exhausted atomic.Int64

	tr atomic.Pointer[tracer] // set for traced passes only
}

type replayKey struct {
	responses []recorded
	next      atomic.Int32
}

func startReplayCDN(t *tape) (*replayCDN, error) {
	c := &replayCDN{keys: make(map[string]*replayKey, len(t.responses))}
	for k, rs := range t.responses {
		c.keys[k] = &replayKey{responses: rs}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.ln = ln
	c.srv = &http.Server{Handler: c}
	go c.srv.Serve(ln) //nolint:errcheck — returns ErrServerClosed on close
	return c, nil
}

func (c *replayCDN) addr() string { return c.ln.Addr().String() }

// rewind starts a new pass: every key answers from its first response again.
func (c *replayCDN) rewind() {
	for _, k := range c.keys {
		k.next.Store(0)
	}
}

func (c *replayCDN) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.srv.Shutdown(ctx) //nolint:errcheck — best effort on the way out
}

func (c *replayCDN) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := c.tr.Load()
	parent, start := -1, int64(0)
	if tr != nil {
		parent, start = tr.openTop()
	}
	k := c.keys[tapeKey(r)]
	var rec *recorded
	if k != nil {
		if i := int(k.next.Add(1)) - 1; i < len(k.responses) {
			rec = &k.responses[i]
		}
	}
	if rec == nil {
		// Asked for something the reference pass never saw: the pass has
		// diverged, which the caller counts as a failed operation.
		c.exhausted.Add(1)
		http.Error(w, "replay: tape exhausted for "+tapeKey(r), http.StatusGone)
	} else {
		h := w.Header()
		for name, vals := range rec.header {
			h[name] = vals
		}
		w.WriteHeader(rec.status)
		if r.Method != http.MethodHead {
			w.Write(rec.body) //nolint:errcheck — a dead client shows up as a fetch error
		}
	}
	if tr != nil {
		tr.record("replaycdn.handle", parent, start)
	}
}

// replayTransport dials the replay CDN whatever host a URL names, so the
// thumbnail_url values recorded inside API responses need no rewriting.
func replayTransport(addr string) *http.Transport {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return d.DialContext(ctx, network, addr)
		},
		// Every platform client shares this transport; keep one idle
		// connection per possible concurrent caller so passes never re-dial.
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
	}
}
