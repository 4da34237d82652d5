#!/usr/bin/env bash
# bench_pipeline.sh — time whole methodology runs end to end and write a
# machine-readable snapshot: the wall time of `edem run -dataset 7Z-B2`
# on the reduced refinement grid and on the paper's full grid (-full),
# five runs each, with the median, min and max of each leg's wall time
# and of its CPU time (user + system, which host contention moves less
# than wall time on a shared machine), the SHA-256 of the run's stdout
# (so two snapshots show whether the output changed), the commit
# (suffixed -dirty for uncommitted changes), nproc, CPU model and go
# version.
#
# Usage:
#   scripts/bench_pipeline.sh      # writes BENCH_pipeline.json
#
# scripts/bench.sh runs it as its pipeline leg.
set -euo pipefail

cd "$(dirname "$0")/.."

SAMPLES=5
OUT=BENCH_pipeline.json
DATASET=7Z-B2

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/edem" ./cmd/edem

# leg NAME ARGS... — run `edem run -dataset $DATASET ARGS...` SAMPLES
# times, appending one line per run to $TMP/NAME.wall and $TMP/NAME.cpu
# (seconds).
leg() {
    local name="$1" i t
    shift
    : > "$TMP/$name.wall"
    : > "$TMP/$name.cpu"
    for ((i = 1; i <= SAMPLES; i++)); do
        t="$({ TIMEFORMAT='%R %U %S'; time "$TMP/edem" run -dataset "$DATASET" "$@" > "$TMP/$name.stdout" 2> /dev/null; } 2>&1)"
        read -r wall user sys <<< "$t"
        echo "$wall" >> "$TMP/$name.wall"
        awk -v u="$user" -v s="$sys" 'BEGIN { printf "%.3f\n", u + s }' >> "$TMP/$name.cpu"
        echo "bench_pipeline: $name sample $i/$SAMPLES wall ${wall}s cpu $(tail -n 1 "$TMP/$name.cpu")s" >&2
    done
}

# stats FILE KEY — JSON fields for one column of samples: the samples in
# run order and their median, min and max.
stats() {
    sort -n "$1" | awk -v key="$2" -v samples="$(paste -sd, "$1")" '
{ v[NR] = $1 }
END {
    med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
    gsub(/,/, ", ", samples)
    printf "\"%s_samples_s\": [%s], \"%s_median_s\": %.3f, \"%s_min_s\": %.3f, \"%s_max_s\": %.3f",
        key, samples, key, med, key, v[1], key, v[NR]
}'
}

# summary NAME ARGS — one JSON member per leg, with the stdout digest
# of its last run.
summary() {
    printf '    "%s": {"args": "%s", %s, %s, "stdout_sha256": "%s"}' "$1" "$2" \
        "$(stats "$TMP/$1.wall" wall)" "$(stats "$TMP/$1.cpu" cpu)" \
        "$(sha256sum "$TMP/$1.stdout" | cut -d' ' -f1)"
}

leg run
leg run_full -full

{
    echo "{"
    echo "  \"generated_by\": \"scripts/bench_pipeline.sh\","
    echo "  \"commit\": \"$(git describe --always --dirty 2> /dev/null || echo unknown)\","
    echo "  \"dataset\": \"$DATASET\","
    echo "  \"nproc\": $(nproc),"
    echo "  \"cpu\": \"$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2> /dev/null)\","
    echo "  \"go_version\": \"$(go version | cut -d' ' -f3-)\","
    echo "  \"legs\": {"
    summary run "run -dataset $DATASET"
    echo ","
    summary run_full "run -dataset $DATASET -full"
    echo ""
    echo "  }"
    echo "}"
} > "$OUT"

echo "wrote $OUT"
