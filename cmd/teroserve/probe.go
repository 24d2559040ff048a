package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"time"

	"tero/internal/serve"
)

// probeBinaryEquality fetches one served entry as JSON and as binary from a
// running server and verifies the binary decode equals the JSON
// float-for-float. Exit 0 on equality. Every request shares one client with
// a timeout, and any non-200 answer fails with its status code, so a
// not-yet-ready or wedged server is reported as such instead of hanging or
// being misread as an empty catalog.
func probeBinaryEquality(baseURL string, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "probe-binary: "+format+"\n", args...)
		return 1
	}
	client := &http.Client{Timeout: 10 * time.Second}
	// fetch GETs target with an optional Accept header and returns the body
	// of a 200 response; anything else is an error naming the status.
	fetch := func(target, accept string) ([]byte, http.Header, error) {
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			return nil, nil, err
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("read %s: %w", target, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("GET %s: status %d", target, resp.StatusCode)
		}
		return body, resp.Header, nil
	}

	body, _, err := fetch(baseURL+"/v1/locations", "")
	if err != nil {
		return fail("%v", err)
	}
	var listing struct {
		Locations []serve.LocationSummary `json:"locations"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		return fail("decode locations: %v", err)
	}
	if len(listing.Locations) == 0 || len(listing.Locations[0].Games) == 0 {
		return fail("server lists no {location, game} pairs")
	}
	loc := listing.Locations[0]
	q := url.Values{}
	q.Set("location", loc.Location.Key)
	q.Set("game", loc.Games[0])
	target := baseURL + "/v1/latency?" + q.Encode()

	jsonBody, _, err := fetch(target, "")
	if err != nil {
		return fail("JSON fetch: %v", err)
	}
	var fromJSON serve.LatencyResponse
	if err := json.Unmarshal(jsonBody, &fromJSON); err != nil {
		return fail("unmarshal JSON: %v", err)
	}

	binBody, hdr, err := fetch(target, serve.ContentTypeBinary)
	if err != nil {
		return fail("binary fetch: %v", err)
	}
	if ct := hdr.Get("Content-Type"); ct != serve.ContentTypeBinary {
		return fail("binary Content-Type = %q, want %q", ct, serve.ContentTypeBinary)
	}
	if et := hdr.Get("ETag"); !strings.HasPrefix(et, "\"t1b-") {
		return fail("binary ETag = %q, want \"t1b-...\" form", et)
	}
	fromBin, err := serve.DecodeLatencyBinary(binBody)
	if err != nil {
		return fail("decode binary: %v", err)
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		return fail("binary decode differs from JSON for %s", target)
	}
	fmt.Fprintf(stdout, "probe-binary: OK — %d JSON bytes == %d binary bytes decoded float-for-float (%s)\n",
		len(jsonBody), len(binBody), target)
	return 0
}
