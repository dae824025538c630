#!/bin/sh
# Paired comparison of two commits, workload by workload: this tree (the
# change, uncommitted edits included) against <rev> (the parent). The
# change is a snapshot of this tree taken at launch — its tracked and
# untracked, non-ignored files, written as one git tree object — built and
# run in a temporary directory, so an edit saved while the benchmark builds
# or runs does not reach the measured binary; the label names that tree.
# Checks <rev> out in a temporary local clone — self-contained, unlike a git
# worktree, which registers itself in this repository's .git and outlives
# a run that is killed — builds the benchmark package of
# both once (offline: its only dependencies are path crates), then runs
# [pairs] pairs of each workload untraced at BENCHMARK.json's run_seconds,
# the parent first in odd pairs and the change first in even ones. Every
# run's metrics_<w>.tsv, result_<w>.json and output are kept under a
# directory printed at the end. Per workload and end-to-end metric it
# prints both medians, the parent's IQR, the change's wins k/N, the ratio
# change/parent and the verdict against the metric's BENCHMARK.json bound.
# The clone is removed on exit. Informational: it always exits 0 once
# the runs are done.
#
# --seed <n> generates the data from seed n (default 1; seed 2 is the
# held-out seed a claim made on seed 1 is confirmed with). --control pairs
# <rev> with itself: both sides run <rev>'s binary, so wins should come out
# near N/2 and every metric inside its bound — the noise floor a real pair
# is read against. --rebuild builds <rev> a second time, in a second clone,
# and runs that build as a third side of every pair: the column "layout"
# (its median over the first build's) is how far two builds of the same
# source land apart — a change's ratio inside that spread says nothing
# about the code.
#
#   tests/bench_pairs.sh [--seed <n>] [--control] [--rebuild] <rev> [pairs] [workload...]
#                                                  (10 pairs; every workload)
set -eu
cd "$(dirname "$0")/.."
usage="usage: $0 [--seed <n>] [--control] [--rebuild] <rev> [pairs] [workload...]"
seed=1
control=
rebuild=
while :; do
    case "${1:-}" in
    --seed) [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }; seed=$2; shift 2 ;;
    --control) control=1; shift ;;
    --rebuild) rebuild=1; shift ;;
    *) break ;;
    esac
done
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
rev=$(git rev-parse --verify --short "$1^{commit}")
shift
pairs=10
case "${1:-}" in [0-9]*) pairs=$1; shift ;; esac
workloads=${*:-$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
here=$(pwd)
tree=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_tree.XXXXXX")
tree2=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_tree2.XXXXXX")
snap=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_snap.XXXXXX")
out=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_runs.XXXXXX")
trap 'rm -rf "$tree" "$tree2" "$snap"' EXIT

# The snapshot: this tree added to a copy of the index (the real one is not
# touched) and written as a tree object, then unpacked into $snap.
cp "$(git rev-parse --git-path index)" "$snap/.index"
snapshot=$(GIT_INDEX_FILE="$snap/.index" git add -A && GIT_INDEX_FILE="$snap/.index" git write-tree)
rm "$snap/.index"
git archive "$snapshot" | tar -xf - -C "$snap"
label=$(git rev-parse --short HEAD)
[ "$snapshot" = "$(git rev-parse "HEAD^{tree}")" ] ||
    label="$label+tree:$(git rev-parse --short "$snapshot")"

build() {
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
# clone <dir>: <rev> checked out and its benchmark built in <dir>
clone() {
    git clone --quiet --no-checkout "$here" "$1"
    git -C "$1" checkout --quiet --detach "$rev"
    build "$1"
}
clone "$tree"
sides="parent change"
if [ -n "$rebuild" ]; then
    echo "building $rev a second time" >&2
    clone "$tree2"
    sides="parent change rebuild"
fi
if [ -n "$control" ]; then
    echo "control: $rev against itself" >&2
    change=$tree
else
    echo "building the benchmark at $rev and in this tree ($label)" >&2
    build "$snap"
    change=$snap
fi

# run <side> <workload> <pair>
run() {
    case "$1" in parent) dir=$tree ;; change) dir=$change ;; *) dir=$tree2 ;; esac
    dest="$out/$2/$1/$3"
    mkdir -p "$dest"
    (cd "$dir" && benchmark/target/release/pbbench --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$dest") > "$dest/log" 2>&1 ||
        echo "$2 $1 pair $3: a check failed" >&2
    tail -n 1 "$dest/log" > "$dest/result_line.json"
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "$w: pair $i of $pairs" >&2
        # The parent first in odd pairs, last in even ones.
        order=$sides
        [ $((i % 2)) -eq 1 ] || order=$(echo "$sides" | awk '{ for (k = NF; k; k--) printf "%s ", $k }')
        for side in $order; do
            run "$side" "$w" "$i"
        done
        i=$((i + 1))
    done
done

[ -z "$control" ] || label="$rev (control)"
echo "parent $rev, change $label, seed $seed, $pairs pair(s) of ${seconds} s, runs in $out"
for w in $workloads; do
    for side in $sides; do
        i=1
        while [ "$i" -le "$pairs" ]; do
            awk -F'\t' -v side="$side" -v pair="$i" \
                '{ print side "\t" pair "\t" $2 "\t" $3 "\t" $5 "\t" $6 }' \
                "$out/$w/$side/$i/metrics_$w.tsv"
            failed=$(sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' "$out/$w/$side/$i/result_line.json")
            printf '%s\t%s\tfailed\t%s\tlower\t0\n' "$side" "$i" "${failed:--1}"
            i=$((i + 1))
        done
    done | awk -F'\t' -v w="$w" '
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # The q-quantile of a sorted a[1..n], interpolated.
        function quantile(a, n, q,   h, lo) {
            h = 1 + (n - 1) * q; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        {
            if (!($3 in better)) order[++metrics] = $3
            better[$3] = $5; bound[$3] = $6
            v[$3, $1, $2] = $4; n[$3, $1]++
            if ($2 > pairs) pairs = $2
        }
        END {
            layout = n["failed", "rebuild"] > 0
            printf "%s\n  %-14s %12s %12s %12s %7s %7s  %-21s%s\n", w, "metric", "parent", "change", "parent IQR", "wins", "ratio", "verdict", layout ? " layout" : ""
            for (m = 1; m <= metrics; m++) {
                k = order[m]
                np = 0; nc = 0; nr = 0; wins = 0
                for (i = 1; i <= pairs; i++) {
                    if ((k, "parent", i) in v) p[++np] = v[k, "parent", i]
                    if ((k, "change", i) in v) c[++nc] = v[k, "change", i]
                    if ((k, "rebuild", i) in v) r[++nr] = v[k, "rebuild", i]
                    if (((k, "parent", i) in v) && ((k, "change", i) in v)) {
                        d = v[k, "change", i] - v[k, "parent", i]
                        if ((better[k] == "lower" && d < 0) || (better[k] == "higher" && d > 0)) wins++
                    }
                }
                sort(p, np); sort(c, nc); sort(r, nr)
                mp = quantile(p, np, 0.5); mc = quantile(c, nc, 0.5)
                iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
                ratio = mp == 0 ? (mc == 0 ? 1 : 0) : mc / mp
                if (k == "failed")
                    verdict = (c[nc] > p[np]) ? "MORE FAILED" : "ok"
                else if (better[k] == "lower")
                    verdict = (mc > mp * (1 + bound[k])) ? "WORSE than the bound" : "ok"
                else
                    verdict = (mc < mp * (1 - bound[k])) ? "WORSE than the bound" : "ok"
                printf "  %-14s %12.6g %12.6g %12.6g %4d/%-2d %7.3f  %-21s", k, mp, mc, iqr, wins, np, ratio, verdict
                if (layout) {
                    mr = quantile(r, nr, 0.5)
                    printf " %6.3f", mp == 0 ? (mr == 0 ? 1 : 0) : mr / mp
                }
                printf "\n"
            }
        }'
done
