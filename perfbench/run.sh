#!/usr/bin/env bash
# Builds the benchmark once, then runs every workload in its own
# process (so peak_rss_mb is per workload) and merges their results
# into one JSON file for `benchmark compare`.
#
# Usage: perfbench/run.sh [--seed N] [--seconds S] [--trace DIR] [--out FILE]
#
#   --seed N      workload seed (default 0xE7C04E)
#   --seconds S   timed seconds per workload (default 20)
#   --trace DIR   also run the traced round; spans go to DIR/<workload>.json
#   --out FILE    merged results (default .bench_out/results.json)
#
# Exits 1 if any workload reported a failed operation.

set -euo pipefail
cd "$(dirname "$0")/.."

seed=0xE7C04E
seconds=20
trace_dir=""
out=.bench_out/results.json
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace_dir="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

# The same build directory as BENCHMARK.json's command.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"

mkdir -p .bench_out
parts=$(mktemp -d .bench_out/parts.XXXXXX)
trap 'rm -rf "$parts"' EXIT
status=0
for workload in splice-bound exec-bound fault-models suite-sweep protect-corpus; do
    args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --out "$parts/$workload.json")
    if [ -n "$trace_dir" ]; then
        args+=(--trace 1 --spans "$trace_dir/$workload.json")
    fi
    "$bin" "${args[@]}" || status=1
done

mkdir -p "$(dirname "$out")"
{
    printf '{"seed": "%s", "seconds": %s, "results": [\n' "$seed" "$seconds"
    sep=""
    for part in "$parts"/*.json; do
        printf '%s' "$sep"
        cat "$part"
        sep=","
    done
    printf ']}\n'
} > "$out"
echo "results written to $out" >&2
exit "$status"
