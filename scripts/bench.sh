#!/usr/bin/env bash
# bench.sh — hot-path benchmark runner for the scheduler scale-out PR.
#
# Runs the cluster benchmarks and writes BENCH_8.json at the repo root:
# ns/op and allocs/op per benchmark, plus two speedup sections —
#   sched_throughput_speedup_vs_bench7  the scale-out grid (mux over a
#                                       2-connection pool vs one conn
#                                       per peer) against the committed
#                                       BENCH_7 binary baselines; the
#                                       acceptance metric is the
#                                       workers=500 mux point, >= 2x
#   sched_throughput_speedup_mux_vs_perconn
#                                       mux vs per-conn within this run,
#                                       defined at every fleet size
#                                       including workers=1000 (which
#                                       has no BENCH_7 baseline)
#
# Each benchmark runs BENCHCOUNT times and the fastest rep is recorded,
# which keeps the speedup ratios stable on noisy shared machines.
#
# Usage:
#   scripts/bench.sh                              # full run
#   BENCHTIME=1x BENCHCOUNT=1 scripts/bench.sh    # CI smoke: one iteration
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-0.3s}"
BENCHCOUNT="${BENCHCOUNT:-3}"
OUT="${OUT:-BENCH_8.json}"
BASELINE="${BASELINE:-BENCH_7.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchtime "$BENCHTIME" -count "$BENCHCOUNT" \
    ./internal/cluster/ | tee "$raw"

awk -v benchtime="$BENCHTIME" '
# First input file: the committed BENCH_7 baselines (binary framing, one
# TCP connection per peer) keyed by worker count.
FNR == NR {
    if (match($0, /"BenchmarkSchedulerThroughput\/workers=[0-9]+\/transport=binary": \{"ns_per_op": [0-9.]+/)) {
        s = substr($0, RSTART, RLENGTH)
        match(s, /workers=[0-9]+/); w = substr(s, RSTART + 8, RLENGTH - 8)
        match(s, /ns_per_op": [0-9.]+/); base[w] = substr(s, RSTART + 12, RLENGTH - 12)
    }
    next
}
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in ns)) { order[++n] = name }
    if (!(name in ns) || $3 + 0 < ns[name] + 0) {
        ns[name] = $3
        alloc[name] = ($8 == "allocs/op") ? $7 : ""
    }
}
END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {\n", benchtime
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s", name, ns[name]
        if (alloc[name] != "") printf ", \"allocs_per_op\": %s", alloc[name]
        printf "}%s\n", (i < n) ? "," : ""
    }
    # Scale-out grid against the committed BENCH_7 binary baselines: the
    # same worker count over one connection per peer, pre-sharding and
    # pre-mux.  Defined wherever BENCH_7 has the matching point.
    printf "  },\n  \"sched_throughput_speedup_vs_bench7\": {\n"
    np = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (name !~ /^BenchmarkSchedulerThroughputScaleOut\//) continue
        w = name; sub(/^.*workers=/, "", w); sub(/\/.*$/, "", w)
        if (!(w in base) || ns[name] + 0 == 0) continue
        pairs[++np] = sprintf("    \"%s\": %.2f", name, base[w] / ns[name])
    }
    for (i = 1; i <= np; i++) printf "%s%s\n", pairs[i], (i < np) ? "," : ""
    # Mux vs per-conn within this run, defined at every fleet size.
    printf "  },\n  \"sched_throughput_speedup_mux_vs_perconn\": {\n"
    np = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (name !~ /^BenchmarkSchedulerThroughputScaleOut.*mode=mux$/) continue
        twin = name; sub(/mode=mux$/, "mode=perconn", twin)
        if (!(twin in ns) || ns[name] + 0 == 0) continue
        pairs[++np] = sprintf("    \"%s\": %.2f", name, ns[twin] / ns[name])
    }
    for (i = 1; i <= np; i++) printf "%s%s\n", pairs[i], (i < np) ? "," : ""
    printf "  }\n}\n"
}' "$BASELINE" "$raw" > "$OUT"

echo "wrote $OUT"
