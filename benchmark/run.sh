#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the repository root.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
#       one run; `--trace 1` selects the per-layer binary (authbench-trace)
#   benchmark/run.sh --smoke            every workload, both binaries, tiny sizes (harness check)
#   benchmark/run.sh --aa [SEEDS]       A/A check: two interleaved sets of SEEDS runs (default 1)
#                                       per workload, then `authbench --compare` both ways
#   benchmark/run.sh --compare A B      compare two result files against the bounds
set -euo pipefail

manifest="$(dirname "$0")/Cargo.toml"
bin_dir="${CARGO_TARGET_DIR:-$(dirname "$0")/target}/release"
workloads=(tnra-short tra-long tra-conj tra-churn)

cargo build --release --offline --manifest-path "$manifest" >&2

# One result file: {"runs": [record, ...]} from the per-run records.
collect() { # <out.json> <record>...
    local out="$1"; shift
    { printf '{"runs": [\n'; cat "$@" | paste -sd, -; printf ']}\n'; } >"$out"
}

case "${1:-}" in
--compare)
    exec "$bin_dir/authbench" "$@"
    ;;
--smoke)
    [ $# -eq 1 ] || { echo "run.sh: --smoke alone runs the harness check" >&2; exit 2; }
    "$bin_dir/authbench" --manifest | diff - BENCHMARK.json >&2 ||
        { echo "run.sh: BENCHMARK.json differs from \`authbench --manifest\`" >&2; exit 1; }
    for w in "${workloads[@]}"; do
        "$bin_dir/authbench" --workload "$w" --smoke --seconds 0 | tail -n 1
        "$bin_dir/authbench-trace" --workload "$w" --smoke --seconds 0 | tail -n 1
    done
    ;;
--aa)
    seeds="${2:-1}"
    dir="$bin_dir/../authbench/aa"
    rm -rf "$dir"; mkdir -p "$dir"
    for seed in $(seq 1 "$seeds"); do
        # Interleave the two sets and alternate the workload order, so
        # drift of the machine lands on both sets alike.
        order=("${workloads[@]}")
        if [ $((seed % 2)) -eq 0 ]; then
            order=(tra-churn tra-conj tra-long tnra-short)
        fi
        for w in "${order[@]}"; do
            for set in a b; do
                "$bin_dir/authbench" --workload "$w" --seed "$seed" \
                    --out "$dir/$set-$w-$seed.json" >"$dir/$set-$w-$seed.log"
            done
        done
    done
    collect "$dir/a.json" "$dir"/a-*.json
    collect "$dir/b.json" "$dir"/b-*.json
    "$bin_dir/authbench" --compare "$dir/a.json" "$dir/b.json"
    "$bin_dir/authbench" --compare "$dir/b.json" "$dir/a.json"
    ;;
*)
    bin=authbench
    prev=
    for arg in "$@"; do
        if [ "$prev" = --trace ] && [ "$arg" = 1 ]; then
            bin=authbench-trace
        fi
        prev="$arg"
    done
    exec "$bin_dir/$bin" "$@"
    ;;
esac
