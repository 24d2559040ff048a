#!/bin/sh
# Paired benchmark gate: runs the benchmark of <parent-ref> and of the
# working tree alternately on this machine and judges the two result files
# with the harness's own -compare. Not part of check.sh: ten pairs of every
# workload take a quarter of an hour or more.
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10]
#
# Exits with -compare's status (1 on any `regressed` row or a risen failure
# share) and repeats every `unresolved` row on stderr: a spread wider than
# the bound is not a pass. Only the untraced mode runs, since per-layer
# metrics carry no bound. The result files are left in the directory the
# last line names.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [pairs=10]" >&2; exit 2; }
REF=$1
PAIRS=${2:-10}

cd "$(dirname "$0")/.."
ROOT=$(pwd)
PARENT_SHA=$(git rev-parse --short "$REF^{commit}")
HEAD_SHA=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain)" ] || HEAD_SHA="$HEAD_SHA+dirty"

OUT=$(mktemp -d "${TMPDIR:-/tmp}/tero-pairs-XXXXXX")
WT="$OUT/parent-tree"
cleanup() {
    git worktree remove --force "$WT" 2>/dev/null || true
    rm -f "$OUT/parent.bin" "$OUT/candidate.bin" "$OUT/parent.last" "$OUT/candidate.last"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM # so an interrupted run still unregisters the worktree
git worktree add --detach "$WT" "$REF" > /dev/null

# One build per side, so no run pays for (or is disturbed by) a compile.
go build -C "$WT/bench" -o "$OUT/parent.bin" .
go build -C "$ROOT/bench" -o "$OUT/candidate.bin" .

WORKLOADS=$(awk '/"workloads"/ {w=1} /"end_to_end"/ {w=0}
    w && /"name"/ {gsub(/.*"name": *"|".*/, ""); print}' BENCHMARK.json)
[ -n "$WORKLOADS" ] || { echo "no workloads found in BENCHMARK.json" >&2; exit 2; }

# run_side <parent|candidate> <tree> <commit> <workload>: the harness reads
# ../BENCHMARK.json, so it runs from its own tree's bench directory.
run_side() {
    (cd "$2/bench" && "$OUT/$1.bin" -workload "$4" -trace 0 \
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

echo "== $PAIRS pairs: a = parent $PARENT_SHA, b = candidate $HEAD_SHA =="
STATUS=0
(cd "$ROOT/bench" && "$OUT/candidate.bin" -compare \
    "$OUT/parent/results.jsonl" "$OUT/candidate/results.jsonl") \
    > "$OUT/compare.txt" || STATUS=$?
cat "$OUT/compare.txt"
if grep -q 'unresolved$' "$OUT/compare.txt"; then
    echo "UNRESOLVED (spread wider than the bound; neither pass nor fail):" >&2
    grep 'unresolved$' "$OUT/compare.txt" >&2
fi
echo "results: $OUT"
exit "$STATUS"
