package trace

import (
	"encoding/hex"
	"strings"
)

// TraceparentHeader is the propagation header name (W3C Trace Context
// shape: version-traceid-spanid-flags, hex fields).
const TraceparentHeader = "traceparent"

// Traceparent renders a context as a W3C-style traceparent value — the one
// form a context takes outside a process: the HTTP header, the claim-trace
// kv hash, object metadata, measurement documents and fleet result frames.
// Tero's IDs are 64-bit, so the 128-bit trace-id field is zero-padded on the
// left. An invalid context renders as "".
func Traceparent(c Context) string {
	if !c.Valid() {
		return ""
	}
	var b [55]byte
	copy(b[:], "00-")
	hexPut(b[3:19], 0)
	hexPut(b[19:35], c.TraceID)
	b[35] = '-'
	hexPut(b[36:52], c.SpanID)
	copy(b[52:], "-01")
	return string(b[:])
}

func hexPut(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ParseTraceparent extracts a context from a traceparent value. Accepts any
// version field and any fields after the flags; the low 64 bits of the
// trace-id are used. It cuts fields off in place instead of splitting, so
// the empty value every untraced thumbnail carries costs no allocation.
func ParseTraceparent(h string) (Context, bool) {
	_, rest, cut1 := strings.Cut(strings.TrimSpace(h), "-")
	traceID, rest, cut2 := strings.Cut(rest, "-")
	spanID, _, cut3 := strings.Cut(rest, "-")
	if !cut1 || !cut2 || !cut3 || len(traceID) != 32 || len(spanID) != 16 {
		return Context{}, false
	}
	tid, ok1 := hexU64(traceID[16:])
	sid, ok2 := hexU64(spanID)
	c := Context{TraceID: tid, SpanID: sid}
	if !ok1 || !ok2 || !c.Valid() {
		return Context{}, false
	}
	return c, true
}

func hexU64(s string) (uint64, bool) {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 8 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, true
}
