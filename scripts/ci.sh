#!/usr/bin/env bash
# Pre-merge check: the tier-1 gate, run fully offline.
#
# `--offline` is load-bearing, not an optimization: the workspace has a
# zero-external-dependency policy (see DESIGN.md §7), and building with
# the network forbidden is what enforces it — any crates.io dependency
# that sneaks into a manifest fails this script immediately.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Intra-doc links rot silently when an item they name is deleted or
# made private; rustdoc reports them only as warnings, so deny them.
echo "==> cargo doc --offline (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Fixed-seed campaign smoke: exercises the snapshot-and-resume +
# convergence-splice injection path end-to-end on a real workload, once
# per fault model so every sampler and its injection machinery (bit
# flips, multi-bit masks, address corruption, wrong-edge control flow,
# power failure) gets an end-to-end run. Each run is deterministic
# (seeded, single-worker-equivalent results at any worker count), so a
# hang or panic here means the campaign engine regressed even if unit
# tests pass.
echo "==> SFI campaign smoke (fixed seed, per fault model)"
for model in bit-flip multi-bit address control-flow power-failure; do
    echo "==> fault model: $model"
    cargo run --release --offline --example fault_injection_campaign -- rawcaudio 24 50 0 12345 "$model"
done

# Divergence-splice smoke: a fixed-seed campaign on a hand-built kernel
# in which all three early-exit rules (converged / dead-diff / sdc) must
# engage, plus the differential test proving splicing never changes
# outcomes. Catches a splice path that silently stopped firing — a pure
# performance regression invisible to correctness tests.
echo "==> divergence-splice smoke (fixed seed)"
cargo test --release -q --offline --test sfi_campaign -- \
    splice_smoke_all_rules_engage splice_never_changes_campaign_results

# Differential fuzz smoke: 64 machine-generated programs (fixed seed —
# cases are a pure function of the property name and index) through the
# splice/stride/worker differential property, plus the per-fault-model
# variant and the adversarial-plan resume/scratch differential. The
# acceptance sweep runs 512 cases; 64 here keeps the gate fast while
# still covering a prefix of the same corpus. (The debug-build test run
# above already checked every splice probe's O(dirty) compare against
# the full scan.)
echo "==> differential fuzz smoke (64 fixed-seed cases)"
ENCORE_FUZZ_CASES=64 cargo test --release -q --offline --test fuzz_differential -- \
    fuzzed_campaigns_are_splice_stride_and_worker_invariant \
    fuzzed_campaigns_are_invariant_under_every_fault_model \
    fuzzed_fault_plans_agree_between_resume_and_scratch

# The benchmark package has its own workspace, so the workspace test
# run above does not reach its tests (metric names, compare verdicts,
# a smoke of every workload).
echo "==> perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir .bench_build

echo "==> OK"
