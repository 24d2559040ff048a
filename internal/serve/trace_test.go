package serve

import (
	"testing"

	"tero/internal/obs/trace"
)

func enableTrace(t *testing.T, seed uint64) {
	t.Helper()
	trace.Enable(seed)
	trace.SetSampleN(1)
	t.Cleanup(trace.Disable)
}

// TestRequestTraceJoinsTraceparent: a request carrying a W3C traceparent
// header joins the caller's trace — the serve.request span lands under the
// remote parent span, in the remote trace ID.
func TestRequestTraceJoinsTraceparent(t *testing.T) {
	enableTrace(t, 1)
	srv := testServer(t)

	const parentHdr = "00-0000000000000000deadbeefcafe0001-00000000000000ab-01"
	w := do(t, srv, "/v1/latency?location="+milanKey+"&game=Fortnite",
		trace.TraceparentHeader, parentHdr)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	tr, ok := trace.ActiveStore().Get(0xdeadbeefcafe0001)
	if !ok {
		t.Fatal("no stored trace under the remote trace ID")
	}
	var found bool
	for _, s := range tr.Spans {
		if s.Name == "serve.request" && s.ParentID == 0xab {
			found = true
			for _, a := range s.Attrs {
				if a.Key == "status" && a.Value != "200" {
					t.Errorf("status attr = %s", a.Value)
				}
			}
		}
	}
	if !found {
		t.Fatalf("serve.request span not parented to remote span ab: %+v", tr.Spans)
	}
}

// TestRequestTraceRootsWithoutHeader: no traceparent ⇒ the request roots
// its own trace, and the latency histogram exemplar carries its ID.
func TestRequestTraceRootsWithoutHeader(t *testing.T) {
	enableTrace(t, 2)
	srv := testServer(t)
	if w := do(t, srv, "/v1/latency?location="+milanKey+"&game=Fortnite"); w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}

	var root *trace.Trace
	for _, tr := range trace.ActiveStore().Traces() {
		if tr.Root == "serve.request" {
			root = tr
			break
		}
	}
	if root == nil {
		t.Fatal("no serve.request root trace stored")
	}
	var lit bool
	for _, e := range handlesFor("latency").seconds.Exemplars() {
		if e.Ref == root.ID {
			lit = true
		}
	}
	if !lit {
		t.Fatalf("serve_http_seconds{route=latency} has no exemplar for trace %016x", root.ID)
	}
}
