#!/bin/sh
# Benchmark trajectory (ROADMAP aim 1: numbers are kept across commits, not
# overwritten): runs the BENCHMARK.json command once per workload, untraced,
# and appends one JSON line per workload — commit, date, host, seed, seconds,
# failed checks and the five end-to-end values — to BENCH_history.jsonl, which
# is committed. Informational: it gates nothing, and only lines taken on one
# host compare. Takes about two minutes.
#
#   tests/bench_history.sh [seed]        (seed 1; 2 is the held-out seed)
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
commit="$(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)"
cpu=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n 1)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for w in $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json); do
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" \
        > "$out/log" || echo "$w: a check failed" >&2
    failed=$(tail -n 1 "$out/log" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p')
    awk -F'\t' -v head="\"commit\": \"$commit\", \"date\": \"$(date -u +%FT%TZ)\", \
\"nproc\": $(nproc), \"cpu\": \"$cpu\", \"seed\": $seed, \"seconds\": $seconds, \
\"failed\": ${failed:--1}" '
        { values = values sprintf(", \"%s\": %.6g", $2, $3) }
        END { printf "{\"workload\": \"%s\", %s%s}\n", $1, head, values }
    ' "$out/metrics_$w.tsv" >> BENCH_history.jsonl
done
tail -n 5 BENCH_history.jsonl
