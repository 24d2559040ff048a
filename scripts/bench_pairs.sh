#!/bin/sh
# Paired benchmark gate: runs the benchmark of <parent-ref> and of the
# working tree alternately on this machine and judges the two result files
# with the harness's own -compare. Not part of check.sh: ten pairs of every
# workload take a quarter of an hour or more.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [workload/metric] [seed=1]
#
# Exits with -compare's status (1 on any `regressed` row or a risen failure
# share) and repeats every `unresolved` row on stderr: a spread wider than
# the bound is not a pass. Only the untraced mode runs, since per-layer
# metrics carry no bound. The result files are left in the directory the
# last line names.
#
# -compare only judges regressions. A third argument names the one metric a
# change claims to improve, e.g. serve_mixed/ops_per_s: the k-th parent run
# is paired with the k-th candidate run, and the script also exits 1 unless
# the candidate wins at least nine tenths of the pairs (ties win nothing) and
# the medians lie further apart than the parent's own quartiles. A fourth
# argument is the workload seed both sides run with: a claim must also hold
# on a seed not used while the change was written (pass '' as the third
# argument to set the seed without a claim).
set -eu

[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [pairs=10] [workload/metric] [seed=1]" >&2; exit 2; }
REF=$1
PAIRS=${2:-10}
CLAIM=${3:-}
SEED=${4:-1}
case "$CLAIM" in
    ''|?*/?*) ;;
    *) echo "claim must be <workload>/<metric>, got '$CLAIM'" >&2; exit 2 ;;
esac
case "$SEED" in
    ''|*[!0-9]*) echo "seed must be a non-negative integer, got '$SEED'" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
ROOT=$(pwd)
PARENT_SHA=$(git rev-parse --short "$REF^{commit}")
HEAD_SHA=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain)" ] || HEAD_SHA="$HEAD_SHA+dirty"

OUT=$(mktemp -d "${TMPDIR:-/tmp}/tero-pairs-XXXXXX")
WT="$OUT/parent-tree"
cleanup() {
    rm -rf "$WT" "$OUT/parent.bin" "$OUT/candidate.bin" "$OUT/parent.last" "$OUT/candidate.last"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM
# The parent's files, unpacked beside the results: nothing is registered in
# the repository, so an interrupted run leaves nothing to undo.
mkdir "$WT"
git archive "$REF" | tar -x -C "$WT"

# One build per side, so no run pays for (or is disturbed by) a compile.
go build -C "$WT/bench" -o "$OUT/parent.bin" .
go build -C "$ROOT/bench" -o "$OUT/candidate.bin" .

WORKLOADS=$(awk '/"workloads"/ {w=1} /"end_to_end"/ {w=0}
    w && /"name"/ {gsub(/.*"name": *"|".*/, ""); print}' BENCHMARK.json)
[ -n "$WORKLOADS" ] || { echo "no workloads found in BENCHMARK.json" >&2; exit 2; }

# run_side <parent|candidate> <tree> <commit> <workload>: the harness reads
# ../BENCHMARK.json, so it runs from its own tree's bench directory.
run_side() {
    (cd "$2/bench" && "$OUT/$1.bin" -workload "$4" -trace 0 -seed "$SEED" \
        -out "$OUT/$1" -commit "$3" > "$OUT/$1.last" 2>&1) \
        || { echo "$1 run of $4 failed:" >&2; cat "$OUT/$1.last" >&2; exit 1; }
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    for w in $WORKLOADS; do
        if [ $((i % 2)) -eq 1 ]; then
            run_side parent "$WT" "$PARENT_SHA" "$w"
            run_side candidate "$ROOT" "$HEAD_SHA" "$w"
        else
            run_side candidate "$ROOT" "$HEAD_SHA" "$w"
            run_side parent "$WT" "$PARENT_SHA" "$w"
        fi
    done
    echo "pair $i/$PAIRS done" >&2
    i=$((i + 1))
done

echo "== $PAIRS pairs, seed $SEED: a = parent $PARENT_SHA, b = candidate $HEAD_SHA =="
STATUS=0
(cd "$ROOT/bench" && "$OUT/candidate.bin" -compare \
    "$OUT/parent/results.jsonl" "$OUT/candidate/results.jsonl") \
    > "$OUT/compare.txt" || STATUS=$?
cat "$OUT/compare.txt"
if grep -q 'unresolved$' "$OUT/compare.txt"; then
    echo "UNRESOLVED (spread wider than the bound; neither pass nor fail):" >&2
    grep 'unresolved$' "$OUT/compare.txt" >&2
fi

# claim_values <results.jsonl>: the claimed metric's value in every run, in
# run order.
claim_values() {
    awk -v w="\"workload\":\"${CLAIM%%/*}\"" -v m="\"metric\":\"${CLAIM#*/}\"" '
        index($0, w) && index($0, m) && match($0, /"value":[-+0-9.eE]+/) {
            print substr($0, RSTART + 8, RLENGTH - 8)
        }' "$1"
}
if [ -n "$CLAIM" ]; then
    BETTER=$(awk -v m="\"name\": \"${CLAIM#*/}\"" 'index($0, m) && match($0, /"better": "[a-z]+"/) {
        print substr($0, RSTART + 11, RLENGTH - 12); exit }' BENCHMARK.json)
    [ -n "$BETTER" ] || { echo "BENCHMARK.json declares no metric ${CLAIM#*/}" >&2; exit 2; }
    claim_values "$OUT/parent/results.jsonl" > "$OUT/claim.parent"
    claim_values "$OUT/candidate/results.jsonl" > "$OUT/claim.candidate"
    [ -s "$OUT/claim.parent" ] || { echo "no $CLAIM rows in the result files" >&2; exit 2; }
    echo "== claim: $CLAIM, $BETTER is better =="
    # Quartiles by the exclusive method, as bench/stats.go and the driver.
    paste "$OUT/claim.parent" "$OUT/claim.candidate" | awk -v better="$BETTER" '
        function sorted(src, dst, n,    i, j, v) {
            for (i = 1; i <= n; i++) {
                v = src[i]
                for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
                dst[j + 1] = v
            }
        }
        function quantile(s, n, k,    pos, lo) {
            pos = k * (n + 1) / 4; lo = int(pos)
            if (lo < 1) return s[1]
            if (lo >= n) return s[n]
            return s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
        }
        NF == 2 {
            n++; a[n] = $1 + 0; b[n] = $2 + 0
            if (better == "higher" ? b[n] > a[n] : b[n] < a[n]) wins++
            printf "pair %2d  parent %14.4f  candidate %14.4f\n", n, a[n], b[n]
        }
        END {
            sorted(a, sa, n); sorted(b, sb, n)
            ma = quantile(sa, n, 2); mb = quantile(sb, n, 2)
            spread = quantile(sa, n, 3) - quantile(sa, n, 1)
            gain = better == "higher" ? mb - ma : ma - mb
            printf "wins %d/%d  median parent %.4f  candidate %.4f  parent quartile spread %.4f\n",
                wins, n, ma, mb, spread
            if (wins * 10 >= n * 9 && gain > spread) { print "claim met"; exit 0 }
            print "claim NOT met (needs wins >= 9/10 of pairs and medians apart by more than the spread)"
            exit 1
        }' || STATUS=1
fi
echo "results: $OUT"
exit "$STATUS"
