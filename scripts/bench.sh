#!/usr/bin/env sh
# bench.sh — run the perf benchmark suites and emit machine-readable
# snapshots, so the perf trajectory is comparable PR-over-PR.
#
# Usage:
#   scripts/bench.sh            # writes BENCH_refine.json + BENCH_campaign.json + BENCH_fabric.json
#                               # + BENCH_serve.json + BENCH_pipeline.json
#   BENCHTIME=3x scripts/bench.sh
#   OUT=/tmp/refine.json CAMPAIGN_OUT=/tmp/campaign.json SERVE_OUT=/tmp/serve.json scripts/bench.sh
#
# BENCH_refine.json covers the refinement grid end-to-end
# (BenchmarkRefineGrid: a synthetic set serial + budgeted workers, and
# the real 7Z-B2 campaign), the SMOTE neighbour index on one 7Z-B2
# fold (BenchmarkNeighborIndex) and the micro kernels refinement is
# built from (C4.5 induction, SMOTE, cross-validation).
# BENCH_campaign.json covers the resumable campaign engine
# (BenchmarkCampaign: bare propane reference, engine overhead,
# journaled checkpointing, and journal replay = resume overhead).
# BENCH_fabric.json covers the distributed campaign fabric
# (BenchmarkFabric: one coordinator plus 1/2/4 in-process workers over
# loopback on a latency-bound synthetic target — the workers=2 over
# workers=1 runs/s ratio is the scaling figure, target >=1.8x).
# BENCH_serve.json covers the serving runtime via `edem bench-serve`:
# latency percentiles, throughput and shed rate for every codec ×
# evaluation-mode leg (json/binary × interpreted/compiled) against a
# bundle exported from a real methodology run.
# BENCH_pipeline.json (scripts/bench_pipeline.sh) is the
# end-to-end unit: wall time of `edem run -dataset 7Z-B2` with and
# without -full, 5 samples each, with median, min, max and nproc.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1x}"

# run_suite PATTERN OUT — run one benchmark set and convert the output
# into a JSON snapshot at OUT.
run_suite() {
    PATTERN="$1"
    SUITE_OUT="$2"

    RAW="$(go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -benchmem . 2>&1)"
    printf '%s\n' "$RAW"

    printf '%s\n' "$RAW" | awk -v benchtime="$BENCHTIME" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && /ns\/op/ {
    name = $1
    iters = $2
    ns = ""; bytes = ""; allocs = ""; runs = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
        if ($(i + 1) == "runs/s") runs = $i
    }
    row = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"runs_per_sec\": %s}",
                  name, iters, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs, runs == "" ? "null" : runs)
    rows = rows == "" ? row : rows ",\n" row
}
END {
    if (rows == "") { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    print "{"
    print "  \"generated_by\": \"scripts/bench.sh\","
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    print "  \"benchmarks\": ["
    print rows
    print "  ]"
    print "}"
}' > "$SUITE_OUT"

    echo "wrote $SUITE_OUT"
}

run_suite 'BenchmarkRefineGrid|BenchmarkNeighborIndex|BenchmarkMicro_C45Induction|BenchmarkMicro_SMOTE|BenchmarkMicro_CrossValidate' "${OUT:-BENCH_refine.json}"
run_suite 'BenchmarkCampaign/' "${CAMPAIGN_OUT:-BENCH_campaign.json}"
run_suite 'BenchmarkFabric/' "${FABRIC_OUT:-BENCH_fabric.json}"

# Serving suite: export a real detector bundle, then drive the load
# harness. SERVE_DURATION tunes the per-leg measurement window.
TMPDIR_SERVE="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SERVE"' EXIT
go build -o "$TMPDIR_SERVE/edem" ./cmd/edem
"$TMPDIR_SERVE/edem" export -dataset MG-A1 -scale 2 -stride 16 \
    -out "$TMPDIR_SERVE/bundle.json"
"$TMPDIR_SERVE/edem" bench-serve -bundle "$TMPDIR_SERVE/bundle.json" \
    -shadow \
    -out "${SERVE_OUT:-BENCH_serve.json}" \
    -duration "${SERVE_DURATION:-3s}"
echo "wrote ${SERVE_OUT:-BENCH_serve.json}"

scripts/bench_pipeline.sh
