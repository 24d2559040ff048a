#!/bin/sh
# Repository health check: gofmt, vet, build, an os.Exit guard on cmd/,
# race-enabled tests (root module and the bench/ module, which the root
# ./... cannot see), a few seconds of each decoder fuzz target, a one-shot
# pipeline benchmark smoke, and smokes that drive the real binaries. Run
# from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l . (root module and bench/) =="
# Report only: nothing is rewritten, under bench/ least of all.
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt -l is not clean:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== os.Exit only inside func main (cmd/) =="
# A command is run(args, stdout, stderr) int behind a main that exits with
# its result: an os.Exit anywhere else skips the deferred cleanups (the
# kvstore flush, the debug-server drain) of every frame above it.
STRAY_EXITS=$(find cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk '
    /^func main\(\)/ { inmain = 1 }
    /os\.Exit\(/ && !inmain && $0 !~ /^[ \t]*\/\// { print FILENAME ":" FNR ": " $0 }
    /^}/ || /^func main\(\).*}[ \t]*$/ { inmain = 0 }')
if [ -n "$STRAY_EXITS" ]; then
    echo "os.Exit outside func main:" >&2
    echo "$STRAY_EXITS" >&2
    exit 1
fi

echo "== go test -race ./... =="
# Among them the tests that share one object payload between goroutines
# (objstore's TestSharedPayloadUnderRace, the pipeline's allocation test),
# the packed-vs-scalar corpus tests of package ocr_test, the goroutines that
# first-touch one glyph-cell table (TestCellTableFirstTouchIsRaceFree) and the
# boot-and-stop tests of all five binaries.
go test -race ./...
# sync.Pool drops Puts at random under the race detector, so the
# one-allocation-per-thumbnail budget and the extraction's bytes-per-thumbnail
# budget are only judged without it.
go test -run '^(TestThumbnailPathAllocationBudget|TestExtractThumbAllocationBudget)$' ./internal/pipeline

echo "== decoder fuzz targets (kvstore wire and log, traceparent, PGM whole and by rows, fleet results; 5s each) =="
# The committed seed corpus runs under the plain tests above; this mutates
# from it. A failing input lands in the package's testdata/fuzz/.
for target in FuzzReadCommand FuzzReadReply FuzzReplayAOF; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 5s ./internal/kvstore
done
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime 5s ./internal/obs/trace
# Two PGM seeds are whole thumbnails (57 and 64 KiB): minimising every
# interesting mutant of those byte by byte would eat the five seconds.
go test -run '^$' -fuzz '^FuzzDecodePGM$' -fuzztime 5s -fuzzminimizetime 50x ./internal/imaging
go test -run '^$' -fuzz '^FuzzDecodePGMRect$' -fuzztime 5s -fuzzminimizetime 50x ./internal/imaging
go test -run '^$' -fuzz '^FuzzDecodeResult$' -fuzztime 5s ./internal/dist

echo "== bench module (own go.mod, replace tero => ../: vet + tests) =="
# An internal/ API removal can break bench/ without the root build noticing.
go vet -C bench ./...
go test -C bench ./...

echo "== incremental publish == from scratch, one snapshot per response (-race -count=5) =="
# The two tests that hold dirty-group Build and dirty-pair Analyze to a
# from-scratch oracle, byte for byte, and the one that holds the index to
# snapshot consistency (both sides of a compare from one publish), repeated
# so the race detector sees the readers on the index against several
# interleavings.
go test -race -count=5 -run '^(TestIncrementalBuildMatchesFresh|TestCompareAnswersFromOneSnapshot)$' ./internal/serve
go test -race -count=5 -run '^TestIncrementalPublishMatchesFromScratch$' ./internal/pipeline

echo "== extraction ahead of the merge: same tables at 1, 2 and 8 workers, no goroutine left (-race -count=5) =="
# The background extractions Tick starts (DESIGN.md §6) against several
# interleavings: the Tick-driven loop byte-identical to the serial one, a
# re-stored key extracted again, a corrupt one quarantined once, a panic
# re-raised by the drain, and the goroutine count back at its baseline.
go test -race -count=5 -run '^(TestExtractAheadDeterminism|TestExtractAheadGoroutines|TestRestoredKeyIsExtractedAgain|TestCorruptThumbnailAheadQuarantinedOnce|TestForEachPanicRecovery)$' ./internal/pipeline

echo "== benchmark smoke (VolumePipeline, 1 iteration) =="
go test -run '^$' -bench '^BenchmarkVolumePipeline$' -benchtime 1x .

echo "== observability smoke (cmd/tero -debug-addr, scrape /metrics) =="
TMPDIR="${TMPDIR:-/tmp}"
OUT="$TMPDIR/tero-check-$$.out"
GOLD="$TMPDIR/tero-gold-$$.out"
CHAOS="$TMPDIR/tero-chaos-$$.out"
SERVE="$TMPDIR/tero-serve-$$.out"
TRACE="$TMPDIR/tero-trace-$$.out"
go build -o "$TMPDIR/tero-check-$$" ./cmd/tero
"$TMPDIR/tero-check-$$" -streamers 15 -days 1 -debug-addr 127.0.0.1:0 -log warn \
    > "$OUT" 2>&1 &
TERO_PID=$!
STORE="$TMPDIR/tero-store-$$.out"
DIST="$TMPDIR/tero-dist-$$.out"
cleanup() {
    kill "$TERO_PID" 2>/dev/null || true
    kill "${SERVE_PID:-}" 2>/dev/null || true
    kill "${TRACE_PID:-}" 2>/dev/null || true
    rm -f "$TMPDIR/tero-check-$$" "$TMPDIR/teroserve-check-$$" \
        "$TMPDIR/terokv-check-$$" "$TMPDIR/teroexp-check-$$" \
        "$TMPDIR/teroworker-check-$$" \
        "$OUT" "$OUT.metrics" \
        "$GOLD" "$GOLD.tables" "$CHAOS" "$CHAOS.err" "$CHAOS.tables" \
        "$SERVE" "$SERVE.hdr" "$SERVE.binhdr" "$SERVE.metrics" "$SERVE.shed" \
        "$TRACE" "$TRACE.list" "$TRACE.detail" "$TRACE.metrics" "$TRACE.hdr" \
        "$TRACE.readyz" "$STORE" "$DIST"
}
trap cleanup EXIT

# Wait for the debug server to announce its resolved address.
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$OUT" | head -n 1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$TERO_PID" 2>/dev/null; then
        echo "tero exited before the debug server came up:" >&2
        cat "$OUT" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.2
done
[ -n "$ADDR" ] || { echo "debug server never announced an address" >&2; exit 1; }

# Let the pipeline record a few rounds, then scrape.
sleep 2
curl -fsS "http://$ADDR/metrics" > "$OUT.metrics"
[ -s "$OUT.metrics" ] || { echo "/metrics returned empty output" >&2; exit 1; }
grep -q '^counter ' "$OUT.metrics" || { echo "/metrics has no counters" >&2; exit 1; }
grep -q '^histogram span_seconds' "$OUT.metrics" \
    || { echo "/metrics has no stage spans" >&2; exit 1; }
curl -fsS -o /dev/null "http://$ADDR/debug/pprof/" \
    || { echo "/debug/pprof/ not served" >&2; exit 1; }
echo "scraped $(wc -l < "$OUT.metrics") metric lines from http://$ADDR/metrics"

echo "== chaos smoke (seeded faults: no panics, counters lit, tables match golden) =="
"$TMPDIR/tero-check-$$" -streamers 15 -days 1 -seed 4 -log error \
    > "$GOLD" 2>/dev/null
"$TMPDIR/tero-check-$$" -streamers 15 -days 1 -seed 4 -log error \
    -faults 1 -fault-seed 2 -metrics > "$CHAOS" 2> "$CHAOS.err"
if grep -q 'panic' "$CHAOS.err"; then
    echo "faulted run panicked:" >&2
    cat "$CHAOS.err" >&2
    exit 1
fi
grep -q '^counter twitchsim_faults_injected_total' "$CHAOS" \
    || { echo "faulted run injected no faults" >&2; exit 1; }
if grep '^counter pipeline_worker_panics_total' "$CHAOS" | grep -qv ' 0$'; then
    echo "faulted run recorded worker panics" >&2
    exit 1
fi
# Everything from the "thumbnails processed:" marker to the metrics report
# is the run's output tables; recovery must keep them byte-identical. The
# command substitution strips the trailing blank line -metrics introduces.
tables() {
    printf '%s\n' "$(awk '/^thumbnails processed:/{on=1} /^== metrics ==$/{exit} on' "$1")"
}
tables "$GOLD" > "$GOLD.tables"
tables "$CHAOS" > "$CHAOS.tables"
[ -s "$GOLD.tables" ] || { echo "golden run produced no tables" >&2; exit 1; }
if ! diff -u "$GOLD.tables" "$CHAOS.tables"; then
    echo "faulted run diverged from fault-free golden" >&2
    exit 1
fi
echo "faulted tables match golden ($(grep -c '^counter twitchsim_faults_injected' "$CHAOS") fault kinds injected)"

echo "== store-crash smoke (chaos-store: SIGKILL terokv mid-run, recovery exact) =="
# Every chaos-store leg — restart-from-AOF, replica failover, and a real
# terokv child killed with SIGKILL — must produce tables byte-identical to
# the crash-free golden, with the recovery counters actually lit.
go build -o "$TMPDIR/terokv-check-$$" ./cmd/terokv
go build -o "$TMPDIR/teroexp-check-$$" ./cmd/teroexp
"$TMPDIR/teroexp-check-$$" -scale 0.1 -workers 4 -metrics \
    -store-exec "$TMPDIR/terokv-check-$$" chaos-store > "$STORE" 2>&1 \
    || { echo "chaos-store run failed:" >&2; cat "$STORE" >&2; exit 1; }
for leg in restart-from-aof replica-failover sigkill-exec; do
    grep -E "^ *$leg +[0-9]+ +yes" "$STORE" > /dev/null \
        || { echo "chaos-store leg $leg not byte-identical:" >&2; cat "$STORE" >&2; exit 1; }
done
grep -E '^counter kvstore_aof_replayed_total +[1-9]' "$STORE" > /dev/null \
    || { echo "chaos-store replayed nothing from the AOF" >&2; cat "$STORE" >&2; exit 1; }
grep -E '^counter kvstore_repl_applied_total +[1-9]' "$STORE" > /dev/null \
    || { echo "chaos-store replica applied nothing" >&2; cat "$STORE" >&2; exit 1; }
echo "store-crash smoke ok: all three crash legs byte-identical with golden"

echo "== dist smoke (coordinator + 2 real teroworker processes, tables match golden) =="
# Boots the shared store on a :0 port, runs fleets of 1 and 2 teroworker
# child processes plus the kill-one-worker crash leg; every leg's analysis
# tables must match the single-process golden byte for byte, with the
# coordinator's dist_* counters lit.
go build -o "$TMPDIR/teroworker-check-$$" ./cmd/teroworker
"$TMPDIR/teroexp-check-$$" -scale 0.05 -metrics -dist-fleets 1,2 \
    -worker-exec "$TMPDIR/teroworker-check-$$" dist-scale > "$DIST" 2>&1 \
    || { echo "dist-scale run failed:" >&2; cat "$DIST" >&2; exit 1; }
for leg in "fleet=1 " "fleet=2 " "fleet=2, 1 killed"; do
    grep -E "^$leg.* yes" "$DIST" > /dev/null \
        || { echo "dist leg '$leg' not byte-identical:" >&2; cat "$DIST" >&2; exit 1; }
done
grep -E '^counter dist_rounds_total +[1-9]' "$DIST" > /dev/null \
    || { echo "dist run drove no rounds" >&2; cat "$DIST" >&2; exit 1; }
grep -E '^counter dist_results_ingested_total +[1-9]' "$DIST" > /dev/null \
    || { echo "dist run ingested nothing" >&2; cat "$DIST" >&2; exit 1; }
grep -E '^counter dist_workers_dead_total +[1-9]' "$DIST" > /dev/null \
    || { echo "dist crash leg never declared the killed worker dead" >&2; cat "$DIST" >&2; exit 1; }
echo "dist smoke ok: fleets of real worker processes byte-identical with golden"

echo "== serve smoke (cmd/teroserve: /healthz, /v1/latency, ETag 304, metrics) =="
go build -o "$TMPDIR/teroserve-check-$$" ./cmd/teroserve
# -refresh 2m republishes on every tick, so the ticks between thumbnail
# rounds have nothing new: Build must hand back the snapshot the index
# already holds and Swap must skip it.
"$TMPDIR/teroserve-check-$$" -streamers 12 -days 1 -addr 127.0.0.1:0 -log warn \
    -refresh 2m > "$SERVE" 2>&1 &
SERVE_PID=$!

# Wait for the API to come up, then for the first publish to make it ready
# (teroserve prints a fully-encoded sample query URL once it has entries).
SADDR=""
SQUERY=""
i=0
while [ $i -lt 300 ]; do
    SADDR=$(sed -n 's|^teroserve listening at http://\([^ ]*\).*|\1|p' "$SERVE" | head -n 1)
    SQUERY=$(sed -n 's|^sample query: \(http://[^ ]*\)$|\1|p' "$SERVE" | head -n 1)
    [ -n "$SQUERY" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "teroserve exited before publishing:" >&2
        cat "$SERVE" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.2
done
[ -n "$SADDR" ] || { echo "teroserve never announced an address" >&2; exit 1; }
[ -n "$SQUERY" ] || { echo "teroserve never published a sample query" >&2; exit 1; }

curl -fsS -o /dev/null "http://$SADDR/healthz" \
    || { echo "/healthz not serving" >&2; exit 1; }
curl -fsS -o /dev/null "http://$SADDR/readyz" \
    || { echo "/readyz not ready after publish" >&2; exit 1; }

# First latency query must be a 200 with an ETag; replaying that ETag via
# If-None-Match must short-circuit to a bodyless 304.
curl -fsS -D "$SERVE.hdr" -o /dev/null "$SQUERY" \
    || { echo "sample latency query failed: $SQUERY" >&2; exit 1; }
ETAG=$(sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' "$SERVE.hdr" | tr -d '\r' | head -n 1)
[ -n "$ETAG" ] || { echo "latency response carried no ETag" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $ETAG" "$SQUERY")
[ "$CODE" = "304" ] \
    || { echo "ETag replay returned $CODE, want 304" >&2; exit 1; }

# Binary representation: the Accept header must switch the Content-Type
# and yield the distinct t1b ETag form.
curl -fsS -D "$SERVE.binhdr" -o /dev/null \
    -H "Accept: application/x-tero-bin" "$SQUERY" \
    || { echo "binary latency query failed: $SQUERY" >&2; exit 1; }
grep -qi '^content-type: *application/x-tero-bin' "$SERVE.binhdr" \
    || { echo "binary query did not return application/x-tero-bin" >&2; exit 1; }
BETAG=$(sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' "$SERVE.binhdr" | tr -d '\r' | head -n 1)
case "$BETAG" in
    '"t1b-'*) ;;
    *) echo "binary ETag is $BETAG, want \"t1b-...\" form" >&2; exit 1 ;;
esac
# Decode equality: the binary body must decode to exactly the JSON body.
"$TMPDIR/teroserve-check-$$" -probe-binary "http://$SADDR" \
    || { echo "binary decode does not match JSON" >&2; exit 1; }

# The serve middleware must have counted those requests on /metrics.
curl -fsS "http://$SADDR/metrics" > "$SERVE.metrics"
grep -q '^counter serve_http_requests_total' "$SERVE.metrics" \
    || { echo "/metrics has no serve request counters" >&2; exit 1; }
grep -q '^counter serve_not_modified_total' "$SERVE.metrics" \
    || { echo "/metrics did not count the 304" >&2; exit 1; }
grep -Eq '^counter serve_publish_skipped_total +[1-9]' "$SERVE.metrics" \
    || { echo "serve run never skipped an idle republish" >&2; exit 1; }
echo "serve smoke ok: $SQUERY -> 200, ETag $ETAG replay -> 304, binary OK"
kill "$SERVE_PID" 2>/dev/null || true

echo "== shed smoke (admission control: overload sheds 503s, run survives) =="
# A tightly gated server under a load test must shed (Retry-After 503s,
# counted separately), finish every request, and still exit 0 — sheds are
# backpressure, not failures.
"$TMPDIR/teroserve-check-$$" -streamers 12 -days 1 -addr 127.0.0.1:0 -log warn \
    -shed-rate 1000 -shed-burst 50 -loadtest 16 -loadtest-requests 50 \
    > "$SERVE.shed" 2>&1 \
    || { echo "gated loadtest exited non-zero:" >&2; cat "$SERVE.shed" >&2; exit 1; }
grep -Eq 'shed [1-9][0-9]*' "$SERVE.shed" \
    || { echo "gated loadtest shed nothing:" >&2; cat "$SERVE.shed" >&2; exit 1; }
grep -q 'transport-errors 0' "$SERVE.shed" \
    || { echo "gated loadtest hit transport errors:" >&2; cat "$SERVE.shed" >&2; exit 1; }
echo "shed smoke ok: $(grep -Eo 'shed [0-9]+' "$SERVE.shed" | head -n 1) of 800 requests, zero hard errors"

echo "== trace/SLO smoke (teroserve -trace: traceparent join, journey chain, freshness SLO) =="
"$TMPDIR/teroserve-check-$$" -streamers 12 -days 1 -addr 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 -trace -trace-sample 1 -log warn \
    > "$TRACE" 2>&1 &
TRACE_PID=$!
DADDR=""
TQUERY=""
i=0
while [ $i -lt 300 ]; do
    DADDR=$(sed -n 's|^debug server listening on http://\([^ ]*\).*|\1|p' "$TRACE" | head -n 1)
    TQUERY=$(sed -n 's|^sample query: \(http://[^ ]*\)$|\1|p' "$TRACE" | head -n 1)
    [ -n "$DADDR" ] && [ -n "$TQUERY" ] && break
    if ! kill -0 "$TRACE_PID" 2>/dev/null; then
        echo "traced teroserve exited early:" >&2
        cat "$TRACE" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.2
done
[ -n "$DADDR" ] || { echo "traced run never announced a debug address" >&2; exit 1; }
[ -n "$TQUERY" ] || { echo "traced run never published a sample query" >&2; exit 1; }

# A query carrying a W3C traceparent must join the caller's trace: the
# trace shows up in the store under the caller's trace ID with the
# serve.request span inside it.
TP="00-0000000000000000deadbeefcafe0001-00000000000000ab-01"
curl -fsS -o /dev/null -H "traceparent: $TP" "$TQUERY" \
    || { echo "traced sample query failed: $TQUERY" >&2; exit 1; }
curl -fsS "http://$DADDR/debug/traces?format=json" > "$TRACE.list"
grep -q 'deadbeefcafe0001' "$TRACE.list" \
    || { echo "/debug/traces has no trace under the caller trace ID" >&2; exit 1; }
curl -fsS "http://$DADDR/debug/traces?id=deadbeefcafe0001" > "$TRACE.detail"
grep -q '"serve.request"' "$TRACE.detail" \
    || { echo "joined trace has no serve.request span" >&2; exit 1; }
# The startup pipeline run was traced: at least one reading journey
# (download.fetch -> ... -> pipeline.publish) must be stored.
grep -q '"download.fetch"' "$TRACE.list" \
    || { echo "no download.fetch journey trace stored" >&2; exit 1; }

# Freshness SLO surface: gauges, burn rates and at least one exemplar on
# /metrics; trace responses and /metrics must be uncacheable; readyz
# carries the SLO report lines.
curl -fsS -D "$TRACE.hdr" "http://$DADDR/metrics" > "$TRACE.metrics"
grep -q '^gauge pipeline_freshness_latest_virtual_seconds' "$TRACE.metrics" \
    || { echo "/metrics has no freshness gauge" >&2; exit 1; }
grep -q '^histogram pipeline_freshness_virtual_seconds' "$TRACE.metrics" \
    || { echo "/metrics has no freshness histogram" >&2; exit 1; }
grep -q '^gauge slo_burn_rate' "$TRACE.metrics" \
    || { echo "/metrics has no SLO burn rates" >&2; exit 1; }
grep -q '^exemplar ' "$TRACE.metrics" \
    || { echo "/metrics has no exemplars" >&2; exit 1; }
grep -qi '^cache-control: *no-store' "$TRACE.hdr" \
    || { echo "/metrics response is cacheable" >&2; exit 1; }
curl -fsS -D "$TRACE.hdr" -o /dev/null "http://$DADDR/debug/traces"
grep -qi '^cache-control: *no-store' "$TRACE.hdr" \
    || { echo "/debug/traces response is cacheable" >&2; exit 1; }
SADDR2=$(sed -n 's|^teroserve listening at http://\([^ ]*\).*|\1|p' "$TRACE" | head -n 1)
curl -fsS "http://$SADDR2/readyz" > "$TRACE.readyz"
grep -q '^slo ' "$TRACE.readyz" \
    || { echo "readyz carries no SLO report" >&2; exit 1; }
echo "trace/SLO smoke ok: traceparent joined, journey stored, freshness + burn rate live"
kill "$TRACE_PID" 2>/dev/null || true

echo "OK"
