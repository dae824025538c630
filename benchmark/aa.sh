#!/usr/bin/env bash
# A/A check: run the whole benchmark twice on one build and compare the two
# runs. Prints, per workload and end-to-end metric, both values, their
# relative difference and the metric's bound; exits non-zero when a difference
# exceeds its bound.
#
#   benchmark/aa.sh [seed]        (seed 1 for development, 2 is held out)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pbbench"
mkdir -p benchmark/out
for side in a b; do
    rm -rf "benchmark/out/aa_$side"
    echo "run $side ..." >&2
    "$bin" --seed "$seed" --out "benchmark/out/aa_$side" > "benchmark/out/aa_$side.log"
done

# metrics_<workload>.tsv: workload, metric, value, unit, better, bound.
awk -F'\t' '
    NR == FNR { first[$1 FS $2] = $3; next }
    {
        a = first[$1 FS $2]; b = $3
        diff = (b - a) / a; if (diff < 0) diff = -diff
        verdict = (diff > $6) ? "EXCEEDS" : "ok"
        if (diff > $6) bad++
        printf "%-16s %-18s %14.4f %14.4f %-5s  diff %6.3f  bound %5.2f  %s\n", $1, $2, a, b, $4, diff, $6, verdict
    }
    END { exit bad > 0 }
' <(cat benchmark/out/aa_a/metrics_*.tsv) <(cat benchmark/out/aa_b/metrics_*.tsv)
