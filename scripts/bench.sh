#!/bin/sh
# Benchmark snapshot: run every Go benchmark in the repo once and write
# a machine-readable summary (benchmark name -> ns/op, allocs/op) so CI
# can archive per-PR performance baselines and diffs stay reviewable.
#
# Usage: scripts/bench.sh [output.json]   (default BENCH_PR9.json)
set -eu
cd "$(dirname "$0")/.."
out=${1:-BENCH_PR9.json}

raw=$(go test -run '^$' -bench . -benchmem -benchtime=1x ./... 2>&1) || {
    printf '%s\n' "$raw"
    exit 1
}
printf '%s\n' "$raw" | grep -E '^Benchmark' || true

printf '%s\n' "$raw" | awk -v out="$out" '
/^Benchmark/ {
    # Drop the -GOMAXPROCS suffix go test appends on multi-core hosts,
    # so snapshots from hosts with different core counts share names
    # and bench_diff.sh compares them instead of listing every
    # benchmark as dropped and new.
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns != "") {
        if (n++) body = body ",\n"
        body = body sprintf("  %c%s%c: {%cns_per_op%c: %s, %callocs_per_op%c: %s}", \
            34, name, 34, 34, 34, ns, 34, 34, (allocs == "" ? "0" : allocs))
    }
}
END {
    printf "{\n%s\n}\n", body > out
    printf "wrote %d benchmark(s) to %s\n", n, out
}'
