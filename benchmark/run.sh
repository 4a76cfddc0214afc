#!/usr/bin/env bash
# The VEDA benchmark's one command.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--quick] [--out DIR]
#       Builds the benchmark (release, offline) and runs each workload in its
#       own process: untraced for the end-to-end metrics, then traced for the
#       per-layer metrics. Exits non-zero if any run fails verification.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run of one workload (what the driver calls). The last line of
#       standard output is the result object.
#   benchmark/run.sh --compare DIR_A DIR_B
#       Applies each metric's bound to two result sets.
#   benchmark/run.sh --aa [--seed N] [--seconds S] [--out DIR]
#       Runs the full set twice (five untraced runs per workload and side,
#       seeds N … N+4) and compares the two sides.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="${CARGO_TARGET_DIR:-$here/target}/release/veda-benchmark"

# Build output goes to stderr: standard output carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

workload="" seed=7 trace="" out="$here/out" mode=run
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --seconds) pass+=(--seconds "$2"); shift 2 ;;
        --quick) pass+=(--quick); shift ;;
        --compare) exec "$bin" compare "$2" "$3" ;;
        --aa) mode=aa; shift ;;
        -h|--help) sed -n '2,16p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "run.sh: unknown argument '$1' (try --help)" >&2; exit 2 ;;
    esac
done

if [ -n "$workload" ]; then workloads=("$workload"); else mapfile -t workloads < <("$bin" list); fi

if [ "$mode" = aa ]; then
    rm -rf "$out/aa_a" "$out/aa_b" # result sets append; start both sides empty
    for side in a b; do
        for wl in "${workloads[@]}"; do
            for i in 0 1 2 3 4; do
                "$bin" run --workload "$wl" --seed $((seed + i)) --trace 0 --out "$out/aa_$side" "${pass[@]}" \
                    | tail -n 1 >/dev/null
            done
        done
    done
    exec "$bin" compare "$out/aa_a" "$out/aa_b"
fi

if [ -n "$trace" ]; then
    [ ${#workloads[@]} -eq 1 ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
    exec "$bin" run --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" "${pass[@]}"
fi

status=0
for wl in "${workloads[@]}"; do
    for t in 0 1; do
        "$bin" run --workload "$wl" --seed "$seed" --trace "$t" --out "$out" "${pass[@]}" || status=$?
    done
done
exit "$status"
