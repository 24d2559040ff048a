#!/bin/sh
# Repository health check: gofmt, vet, build, an os.Exit guard on cmd/,
# race-enabled tests (root module and the bench/ module, which the root
# ./... cannot see), the OCR engines' glyph memo under -race -count=5 (many
# goroutines on one engine must read what a fresh engine reads serially), a
# few seconds of each decoder fuzz target, one-shot benchmark smokes (the
# pipeline, one extraction that must repeat, memo hits and all, and the
# three engines read through one page, which must equal their separate reads),
# smokes that drive the real binaries (the chaos smoke requires the
# downloader's digest check to catch every corrupted body the CDN sent, at
# least one, and three faulted tero runs must print the same output), a
# determinism smoke (teroexp volume at -workers 8, three
# times, against -workers 1) whose serial run also gates the peak live heap
# at 48 MB, a reachability gate (scripts/reach: no function that no binary
# links, unless allowlisted) and the regeneration of every measured block of
# EXPERIMENTS.md. Run from anywhere inside the repo.
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

echo "== reachability gate (every function linked by a binary or allowlisted) =="
# Builds every cmd/ and examples/ binary with inlining off and fails on a
# function no binary links that scripts/reach/allowlist.txt does not name, or
# on an allowlist line that no longer holds.
GATE_START=$(date +%s)
go run ./scripts/reach
echo "reachability gate ok in $(( $(date +%s) - GATE_START )) s"

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

echo "== decoder fuzz targets (kvstore wire, log and snapshot, traceparent, PGM whole and by rows, fleet results and balance records, queue entries; 5s each) =="
# The committed seed corpus runs under the plain tests above; this mutates
# from it. A failing input lands in the package's testdata/fuzz/.
for target in FuzzReadCommand FuzzReadReply FuzzReplayAOF FuzzLoadSnapshot; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 5s ./internal/kvstore
done
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime 5s ./internal/obs/trace
# Two PGM seeds are whole thumbnails (57 and 64 KiB): minimising every
# interesting mutant of those byte by byte would eat the five seconds.
go test -run '^$' -fuzz '^FuzzDecodePGM$' -fuzztime 5s -fuzzminimizetime 50x ./internal/imaging
go test -run '^$' -fuzz '^FuzzDecodePGMRect$' -fuzztime 5s -fuzzminimizetime 50x ./internal/imaging
go test -run '^$' -fuzz '^FuzzDecodeResult$' -fuzztime 5s ./internal/dist
go test -run '^$' -fuzz '^FuzzDecodeWorkerStats$' -fuzztime 5s ./internal/dist
go test -run '^$' -fuzz '^FuzzDecodeAssignment$' -fuzztime 5s ./internal/download

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
# re-stored key extracted again, a corrupt one counted once and deleted, a panic
# re-raised by the drain, and the goroutine count back at its baseline.
go test -race -count=5 -run '^(TestExtractAheadDeterminism|TestConcurrencyDeterminism|TestExtractAheadGoroutines|TestRestoredKeyIsExtractedAgain|TestCorruptThumbnailAheadQuarantinedOnce|TestStagePanicRecovery)$' ./internal/pipeline
go test -race -count=5 -run '^TestForEachPanicRecovery$' ./internal/par

echo "== OCR glyph memo: concurrent reads == a fresh engine's serial pass (-race -count=5) =="
# Each engine value remembers the glyph boxes it has classified in a table of
# atomic pointers that every extraction against it shares: goroutines over
# the corpus on one engine must get every Result a cold engine gets alone.
go test -race -count=5 -run '^TestMemoConcurrentMatchesSerial$' ./internal/ocr

echo "== benchmark smoke (VolumePipeline, Extract and RecognizeAll, 1 iteration each) =="
go test -run '^$' -bench '^BenchmarkVolumePipeline$' -benchtime 1x .
# BenchmarkExtract extracts one rendered thumbnail again after a first
# extraction and fails if the two differ: pooled scratch (bitmaps, strips,
# blur rows) must carry nothing from one call into the next, and the later
# extractions read every glyph from the engines' memos, which the first
# filled, so the memo must answer what the engines computed.
go test -run '^$' -bench '^BenchmarkExtract$' -benchtime 1x ./internal/imageproc
# BenchmarkRecognizeAll reads corpus crops through one shared page and as
# three standalone engine reads, and fails if the two differ.
go test -run '^$' -bench '^BenchmarkRecognizeAll$' -benchtime 1x ./internal/ocr

echo "== observability smoke (cmd/tero -debug-addr, scrape /metrics) =="
TMPDIR="${TMPDIR:-/tmp}"
OUT="$TMPDIR/tero-check-$$.out"
GOLD="$TMPDIR/tero-gold-$$.out"
CHAOS="$TMPDIR/tero-chaos-$$.out"
SERVE="$TMPDIR/tero-serve-$$.out"
TRACE="$TMPDIR/tero-trace-$$.out"
go build -o "$TMPDIR/tero-check-$$" ./cmd/tero
# The default world (300 streamers, 2 days): a run of seconds, not a tenth
# of one, so there is a live debug server to scrape.
"$TMPDIR/tero-check-$$" -streamers 300 -days 2 -debug-addr 127.0.0.1:0 -log warn \
    > "$OUT" 2>&1 &
TERO_PID=$!
STORE="$TMPDIR/tero-store-$$.out"
DIST="$TMPDIR/tero-dist-$$.out"
DET="$TMPDIR/tero-det-$$"
EXP="$TMPDIR/tero-exp-$$"
cleanup() {
    kill "$TERO_PID" 2>/dev/null || true
    kill "${SERVE_PID:-}" 2>/dev/null || true
    kill "${TRACE_PID:-}" 2>/dev/null || true
    rm -f "$TMPDIR/tero-check-$$" \
        "$TMPDIR/terokv-check-$$" "$TMPDIR/teroexp-check-$$" \
        "$TMPDIR/teroworker-check-$$" \
        "$OUT" "$OUT.metrics" \
        "$GOLD" "$GOLD.tables" "$CHAOS" "$CHAOS.err" "$CHAOS.tables" \
        "$CHAOS.steady" "$CHAOS.again" "$CHAOS.again.steady" \
        "$SERVE" "$SERVE.hdr" "$SERVE.binhdr" "$SERVE.metrics" \
        "$TRACE" "$TRACE.list" "$TRACE.detail" "$TRACE.metrics" "$TRACE.hdr" \
        "$TRACE.readyz" "$STORE" "$DIST" "$DET.out" "$DET.gc" "$DET.serial" "$DET.parallel" \
        "$EXP.want" "$EXP.have" "$EXP.block" "$EXP.doc" "$EXP.raw" "$EXP.out"
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

# Scrape once the pipeline has recorded a stage span, then let the run end.
curl -fsS -o /dev/null "http://$ADDR/debug/pprof/" \
    || { echo "/debug/pprof/ not served" >&2; exit 1; }
i=0
until curl -fsS "http://$ADDR/metrics" > "$OUT.metrics" \
    && grep -q '^histogram span_seconds' "$OUT.metrics"; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "/metrics showed no stage span in 10 s" >&2; exit 1; }
    sleep 0.1
done
grep -q '^counter ' "$OUT.metrics" || { echo "/metrics has no counters" >&2; exit 1; }
echo "scraped $(wc -l < "$OUT.metrics") metric lines from http://$ADDR/metrics"
wait "$TERO_PID" || { echo "the scraped tero run failed:" >&2; cat "$OUT" >&2; exit 1; }

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
# The downloader's digest check must catch every corrupted body: a drain
# counts and deletes a corrupt thumbnail like any other, so one that got
# past the download path would cost a reading without failing anything.
# The CDN corrupts only a body it sends whole and with its seq header, and
# the downloader checks the digest before it recognises a repeat, so every
# corrupted body reaches the check: caught == sent, and at least one. With
# the digest and the Content-Length read, no corrupt body is stored at all.
counter() { awk -v n="$1" '$1 == "counter" && $2 == n { print $3 }' "$CHAOS"; }
CORRUPT_SENT=$(counter 'twitchsim_faults_injected_total{kind=corrupt}')
CORRUPT_CAUGHT=$(counter download_body_corrupt_total)
if [ "${CORRUPT_CAUGHT:-0}" -lt 1 ] || [ "$CORRUPT_CAUGHT" -ne "${CORRUPT_SENT:-0}" ]; then
    echo "digest caught ${CORRUPT_CAUGHT:-0} corrupt bodies of ${CORRUPT_SENT:-0} sent (want 1 <= caught == sent)" >&2
    exit 1
fi
grep -qx 'counter pipeline_thumbs_quarantined_total 0' "$CHAOS" \
    || { echo "faulted run stored a corrupt thumbnail: $(grep '^counter pipeline_thumbs_quarantined_total' "$CHAOS")" >&2; exit 1; }
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

echo "== faulted-run determinism (the whole output, three runs) =="
# The API quota counts platform time and a fault is a function of (seed,
# URI, per-URI ordinal), so the faulted run repeats byte for byte: tables,
# the faults-injected line, every counter. Left out are the wall-clock
# lines (run time, the platform's port, *_seconds histograms),
# pipeline_extract_ahead_total, whose ready/waited split races extraction
# against the next drain, and the hit and miss lines of ocr_cell_memo_total,
# whose split follows which background extraction meets a glyph first (two
# that meet a new one at once both miss); its bypass lines stay.
steady() {
    grep -Ev '^(pipeline done in|platform serving at) |^histogram [a-z_]+_seconds|^counter pipeline_extract_ahead_total|^counter ocr_cell_memo_total\{engine=[a-z]+,result=(hit|miss)\}' "$1" || true
}
steady "$CHAOS" > "$CHAOS.steady"
for run in 2 3; do
    "$TMPDIR/tero-check-$$" -streamers 15 -days 1 -seed 4 -log error \
        -faults 1 -fault-seed 2 -metrics > "$CHAOS.again" 2>/dev/null
    steady "$CHAOS.again" > "$CHAOS.again.steady"
    if ! diff -u "$CHAOS.steady" "$CHAOS.again.steady"; then
        echo "faulted run $run printed other output than run 1" >&2
        exit 1
    fi
done
echo "3 faulted runs identical ($(grep '^faults injected:' "$CHAOS"))"

echo "== store-crash smoke (chaos-store: SIGKILL terokv mid-run, recovery exact) =="
# Every chaos-store leg — restart-from-AOF in process and a real terokv
# child killed with SIGKILL — must crash the store (a numeric crash tick,
# which comes only after a committed snapshot) and produce tables
# byte-identical to the crash-free golden, with the recovery counters
# actually lit: a snapshot taken, an AOF tail replayed, a connection cut.
go build -o "$TMPDIR/terokv-check-$$" ./cmd/terokv
go build -o "$TMPDIR/teroexp-check-$$" ./cmd/teroexp
"$TMPDIR/teroexp-check-$$" -scale 0.11 -workers 4 -metrics \
    -store-exec "$TMPDIR/terokv-check-$$" chaos-store > "$STORE" 2>&1 \
    || { echo "chaos-store run failed:" >&2; cat "$STORE" >&2; exit 1; }
for leg in restart-from-aof sigkill-exec; do
    grep -E "^ *$leg +[0-9]+ " "$STORE" > /dev/null \
        || { echo "chaos-store leg $leg never crashed the store:" >&2; cat "$STORE" >&2; exit 1; }
    grep -E "^ *$leg +[0-9]+ +yes" "$STORE" > /dev/null \
        || { echo "chaos-store leg $leg not byte-identical:" >&2; cat "$STORE" >&2; exit 1; }
done
grep -E '^counter kvstore_snapshots_total +[1-9]' "$STORE" > /dev/null \
    || { echo "chaos-store took no snapshot: recovery never loaded one" >&2; cat "$STORE" >&2; exit 1; }
grep -E '^counter kvstore_aof_replayed_total +[1-9]' "$STORE" > /dev/null \
    || { echo "chaos-store replayed nothing from the AOF" >&2; cat "$STORE" >&2; exit 1; }
grep -E '^counter kvstore_client_redials_total +[1-9]' "$STORE" > /dev/null \
    || { echo "chaos-store crash cut no live connection" >&2; cat "$STORE" >&2; exit 1; }
echo "store-crash smoke ok: all crash legs byte-identical with golden"

echo "== determinism smoke (teroexp volume: -workers 8 three times, each as -workers 1) =="
# The production pipeline is a function of its seed: adoption is one serial
# deal per tick, so goroutine scheduling cannot pick the tick that adopts a
# streamer. Each 8-worker run must print the serial run's tables; only the
# wall-time line may differ.
# The serial run also gates the heap: Drive drains the thumbnail bucket every
# 15 ticks, so the peak live heap (the third "A->B->C MB" figure of a
# gctrace line) stays near 16 MB; a backlog of 200 ticks held 120-140 MB.
volume_tables() {
    "$TMPDIR/teroexp-check-$$" -scale 1 -workers "$1" volume > "$DET.out"
    grep -v '^\[volume completed in ' "$DET.out"
}
GODEBUG=gctrace=1 "$TMPDIR/teroexp-check-$$" -scale 1 -workers 1 volume > "$DET.out" 2> "$DET.gc"
grep -v '^\[volume completed in ' "$DET.out" > "$DET.serial"
[ -s "$DET.serial" ] || { echo "serial volume run printed no tables" >&2; exit 1; }
PEAK_MB=$(awk '/^gc / { for (i = 1; i < NF; i++) if ($(i+1) == "MB," && split($i, mb, "->") == 3 && mb[3] + 0 > peak) peak = mb[3] + 0 }
    END { print peak + 0 }' "$DET.gc")
[ "$PEAK_MB" -gt 0 ] || { echo "no gctrace line in the serial volume run" >&2; exit 1; }
if [ "$PEAK_MB" -gt 48 ]; then
    echo "serial volume run peaked at $PEAK_MB MB of live heap, over the 48 MB gate" >&2
    exit 1
fi
echo "heap gate ok: serial volume run peaked at $PEAK_MB MB of live heap (gate 48 MB)"
for run in 1 2 3; do
    volume_tables 8 > "$DET.parallel"
    if ! diff -u "$DET.serial" "$DET.parallel"; then
        echo "volume at -workers 8 (run $run) diverged from -workers 1" >&2
        exit 1
    fi
done
echo "determinism smoke ok: three 8-worker volume runs byte-identical with the serial one"

echo "== EXPERIMENTS.md blocks (teroexp -seed 1 -scale 1, every experiment but the three robustness ones) =="
# Each measured block of EXPERIMENTS.md sits between "<!-- teroexp <id> -->"
# and "<!-- /teroexp -->" in a fence: it must be that experiment's output,
# less its "[<id> completed in ...]" line, trailing blanks and trailing blank
# lines. Every experiment but chaos, chaos-store and dist-scale has one.
EXP_START=$(date +%s)
experiment_block() {
    awk -v id="$1" '$0 == "<!-- teroexp " id " -->" { on = 1; next }
        on && $0 == "<!-- /teroexp -->" { exit }
        on' EXPERIMENTS.md
}
normalise() {
    awk '{ sub(/[ \t]+$/, ""); if ($0 == "") blank++; else { for (; blank > 0; blank--) print ""; print } }'
}
"$TMPDIR/teroexp-check-$$" -list | awk '{ print $1 }' \
    | grep -vxE 'chaos|chaos-store|dist-scale' | LC_ALL=C sort > "$EXP.want"
sed -n 's/^<!-- teroexp \([a-z0-9-]*\) -->$/\1/p' EXPERIMENTS.md | LC_ALL=C sort > "$EXP.have"
if ! diff -u "$EXP.want" "$EXP.have"; then
    echo "EXPERIMENTS.md blocks (+) differ from teroexp's experiments (-)" >&2
    exit 1
fi
for id in $(cat "$EXP.want"); do
    experiment_block "$id" > "$EXP.block"
    if [ "$(head -n 1 "$EXP.block")" != '```' ] || [ "$(tail -n 1 "$EXP.block")" != '```' ]; then
        echo "EXPERIMENTS.md: the $id block is not one fenced block" >&2
        exit 1
    fi
    sed '1d;$d' "$EXP.block" | normalise > "$EXP.doc"
    "$TMPDIR/teroexp-check-$$" -seed 1 -scale 1 "$id" > "$EXP.raw" \
        || { echo "teroexp $id failed" >&2; exit 1; }
    grep -v "^\[$id completed in " "$EXP.raw" | normalise > "$EXP.out"
    if ! diff -u "$EXP.doc" "$EXP.out"; then
        echo "EXPERIMENTS.md: the $id block (-) is not what teroexp $id prints (+): paste the new output" >&2
        exit 1
    fi
done
echo "EXPERIMENTS.md ok: $(wc -l < "$EXP.want") blocks regenerated byte-identical in $(( $(date +%s) - EXP_START )) s"

echo "== dist smoke (coordinator + 2 real teroworker processes, tables match golden) =="
# Boots the shared store on a :0 port, runs fleets of 1 and 2 teroworker
# child processes plus the kill-one-worker crash leg; every leg's analysis
# tables must match the single-process golden byte for byte, with the
# coordinator's dist_* counters lit, no result rejected and the killed
# worker's claims reaped.
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
# A fleet's own results are all valid: the coordinator rejects none.
grep -E '^counter dist_results_rejected_total +0$' "$DIST" > /dev/null \
    || { echo "dist run rejected results its own fleet pushed" >&2; cat "$DIST" >&2; exit 1; }
grep -E '^counter dist_workers_dead_total +[1-9]' "$DIST" > /dev/null \
    || { echo "dist crash leg never declared the killed worker dead" >&2; cat "$DIST" >&2; exit 1; }
grep -E '^DISTBENCH .*"crash":true.*"claims_reaped":[1-9]' "$DIST" > /dev/null \
    || { echo "dist crash leg reaped no claim" >&2; cat "$DIST" >&2; exit 1; }
echo "dist smoke ok: fleets of real worker processes byte-identical with golden"

echo "== serve smoke (tero -addr: /healthz, /v1/latency, ETag 304, metrics, SIGTERM exit 0) =="
# A serving run republishes after every drain; a drain that took in no new
# reading has nothing new, so Build must hand back the snapshot the index
# already holds and Swap must skip it.
"$TMPDIR/tero-check-$$" -streamers 12 -days 1 -addr 127.0.0.1:0 -log warn \
    > "$SERVE" 2>&1 &
SERVE_PID=$!

# Wait for the API to come up, then for the final publish (tero prints a
# fully-encoded sample query URL after it, once it has entries).
SADDR=""
SQUERY=""
i=0
while [ $i -lt 300 ]; do
    SADDR=$(sed -n 's|^tero serving /v1 at http://\([^ ]*\).*|\1|p' "$SERVE" | head -n 1)
    SQUERY=$(sed -n 's|^sample query: \(http://[^ ]*\)$|\1|p' "$SERVE" | head -n 1)
    [ -n "$SQUERY" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "the serving tero exited before publishing:" >&2
        cat "$SERVE" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.2
done
[ -n "$SADDR" ] || { echo "the serving tero never announced an address" >&2; exit 1; }
[ -n "$SQUERY" ] || { echo "the serving tero never published a sample query" >&2; exit 1; }

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

# The retired binary representation: Accepting it gets the JSON answer,
# same Content-Type and same ETag as the plain query.
curl -fsS -D "$SERVE.binhdr" -o /dev/null \
    -H "Accept: application/x-tero-bin" "$SQUERY" \
    || { echo "latency query with Accept: application/x-tero-bin failed: $SQUERY" >&2; exit 1; }
grep -qi '^content-type: *application/json' "$SERVE.binhdr" \
    || { echo "Accept: application/x-tero-bin did not return application/json" >&2; exit 1; }
BETAG=$(sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' "$SERVE.binhdr" | tr -d '\r' | head -n 1)
[ "$BETAG" = "$ETAG" ] \
    || { echo "Accept: application/x-tero-bin ETag is $BETAG, want the plain query's $ETAG" >&2; exit 1; }

# The serve middleware must have counted those requests on /metrics.
curl -fsS "http://$SADDR/metrics" > "$SERVE.metrics"
grep -q '^counter serve_http_requests_total' "$SERVE.metrics" \
    || { echo "/metrics has no serve request counters" >&2; exit 1; }
grep -q '^counter serve_not_modified_total' "$SERVE.metrics" \
    || { echo "/metrics did not count the 304" >&2; exit 1; }
grep -Eq '^counter serve_publish_skipped_total +[1-9]' "$SERVE.metrics" \
    || { echo "serve run never skipped an idle republish" >&2; exit 1; }
echo "serve smoke ok: $SQUERY -> 200, ETag $ETAG replay -> 304, Accept x-tero-bin -> same JSON"

# Graceful shutdown: SIGTERM must drain the server and exit 0.
kill -TERM "$SERVE_PID"
SCODE=0
wait "$SERVE_PID" || SCODE=$?
SERVE_PID=""
[ "$SCODE" = 0 ] \
    || { echo "the serving tero exited $SCODE on SIGTERM, want 0:" >&2; cat "$SERVE" >&2; exit 1; }
grep -q '^shutting down$' "$SERVE" \
    || { echo "the serving tero did not report shutting down:" >&2; cat "$SERVE" >&2; exit 1; }
echo "serve shutdown ok: SIGTERM -> exit 0"

echo "== trace/SLO smoke (tero -addr -trace: traceparent join, journey chain, freshness SLO) =="
"$TMPDIR/tero-check-$$" -streamers 12 -days 1 -addr 127.0.0.1:0 \
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
        echo "the traced serving tero exited early:" >&2
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
SADDR2=$(sed -n 's|^tero serving /v1 at http://\([^ ]*\).*|\1|p' "$TRACE" | head -n 1)
curl -fsS "http://$SADDR2/readyz" > "$TRACE.readyz"
grep -q '^slo ' "$TRACE.readyz" \
    || { echo "readyz carries no SLO report" >&2; exit 1; }
echo "trace/SLO smoke ok: traceparent joined, journey stored, freshness + burn rate live"
kill "$TRACE_PID" 2>/dev/null || true

echo "OK"
