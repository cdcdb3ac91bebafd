#!/usr/bin/env bash
# Runs the benchmark suites offline and records machine-readable results
# at the repo root (one JSON object per suite run, appended by the
# in-repo microbench harness via the ENCORE_BENCH_JSON environment
# variable): the analysis suite into BENCH_analysis.json and the
# simulator/SFI-campaign suite into BENCH_sim.json (golden_run and
# campaign_40 rows at 1x — including per-fault-model campaign_40_<model>
# rows for multi_bit/address/control_flow/power_failure — plus the
# campaign_40_xl tier at 10x data scale; the suite also prints the
# probe-cost counters: probes attempted, pages compared, words compared). Set
# ENCORE_BENCH_LABEL to tag the emitted rows (e.g. "baseline" vs
# "post-change" when comparing in one file); by default rows are
# labeled with the current git commit so results stay attributable
# after the fact.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ -z "${ENCORE_BENCH_LABEL:-}" ]; then
    sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
    dirty=$(git diff --quiet 2>/dev/null || echo "-dirty")
    export ENCORE_BENCH_LABEL="$sha${dirty:-}"
fi
echo "==> labeling rows: $ENCORE_BENCH_LABEL"

# Absolute paths: cargo runs bench binaries with cwd = the package root,
# so a relative path would land inside crates/encore-bench/.
run_suite() {
    local bench="$1" out="$2"
    rm -f "$out"
    echo "==> cargo bench -p encore-bench --bench $bench --offline"
    ENCORE_BENCH_JSON="$PWD/$out" cargo bench -p encore-bench --bench "$bench" --offline
    echo "==> wrote $out"
}

run_suite analysis BENCH_analysis.json
run_suite sim BENCH_sim.json
