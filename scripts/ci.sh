#!/usr/bin/env bash
# Pre-merge check: the tier-1 gate, run fully offline.
#
# `--offline` is load-bearing, not an optimization: the workspace has a
# zero-external-dependency policy (see DESIGN.md §7), and building with
# the network forbidden is what enforces it — any crates.io dependency
# that sneaks into a manifest fails this script immediately. `--locked`
# does the same for the lock files: a manifest edit that leaves
# `Cargo.lock` (or `perfbench/Cargo.lock`) stale fails here instead of
# rewriting the lock.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --locked --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --locked --offline --workspace

# The simulator's unit tests again in release: overflow wraps and
# `debug_assert!` is compiled out there, so its handle conversions and
# inlined arithmetic can behave differently than under the debug run.
echo "==> cargo test --release -q --offline -p encore-sim"
cargo test --release -q --locked --offline -p encore-sim

# The observe-hook digests pin where the profile, trace and golden-record
# hooks fire in the sprint loop, so check them against the optimised
# loop too, not only the debug one.
echo "==> cargo test --release -q --offline --test observe_hook"
cargo test --release -q --locked --offline --test observe_hook

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --locked --offline --workspace --all-targets -- -D warnings

# Intra-doc links rot silently when an item they name is deleted or
# made private; rustdoc reports them only as warnings, so deny them.
echo "==> cargo doc --offline (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked --offline

# Private items' docs link to each other as much as public ones do (the
# simulator's internals are mostly `pub(crate)`), and the public pass
# does not render them, so check their links in a second pass.
echo "==> cargo doc --offline --document-private-items (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --locked --offline

# EXPERIMENTS.md quotes the experiment binaries verbatim: rerun the
# command of every labelled block and fail on any line that differs, so
# an outcome change must be written back to the document.
echo "==> EXPERIMENTS.md verbatim blocks (experiments --sfi 150, ablations --sfi 120)"
scripts/check-experiments.sh

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
    cargo run --release --locked --offline --example fault_injection_campaign -- rawcaudio 24 50 0 12345 "$model"
done

# Divergence-splice smoke: a fixed-seed campaign on a hand-built kernel
# in which all three early-exit rules (converged / dead-diff / sdc) must
# engage, plus the differential test proving splicing never changes
# outcomes. Catches a splice path that silently stopped firing — a pure
# performance regression invisible to correctness tests. Also run in
# release: the campaign memo's invisibility test (memo'd reports equal
# executed ones, and the memo must answer some runs), the -0.0
# regression (a sign-bit flip the splice once certified as recovered),
# the faulted-alloc containment test (a grown `alloc` size once aborted
# the process), the bounded-exhaustive renaming sweep (every
# fault plan up to latency 24 on kernels whose rollbacks re-call a
# function classifies the same spliced as from scratch) and the same
# sweep on a region armed once, whose re-executed runs the splice
# certifies by ignoring dead registers and cells written before read. The
# resume-exactness test (a run resumed from any golden snapshot ends in
# the uninterrupted run's `RunResult`) and the pinned trap texts are
# encore-sim tests, so the release encore-sim step above runs them.
# Last, the property harness's shrinker end to end: the ignored
# regression-mining tool minimises the choice vector of the first fuzz
# case engaging each rule and fails unless the minimised case still
# engages it within 24 choices.
echo "==> divergence-splice smoke (fixed seed)"
cargo test --release -q --locked --offline --test sfi_campaign -- \
    splice_smoke_all_rules_engage splice_never_changes_campaign_results \
    memo_never_changes_campaign_reports negative_zero_flip_splices_to_the_no_splice_outcome \
    faulted_alloc_sizes_are_contained \
    renamed_reruns_splice_to_the_no_splice_outcome_under_every_plan \
    a_region_armed_once_splices_its_rerun_as_dead_diff
cargo test --release -q --locked --offline --test fuzz_differential -- \
    --ignored --exact find_rule_regression_candidates

# Containment: token- and byte-level mutants of printed modules, and
# four module shapes too large to run, end in a parse or verify error or
# a trap, never in an aborted process.
echo "==> containment (mutated and oversized modules)"
cargo test --release -q --locked --offline --test workload_roundtrip -- \
    mutated_modules_are_errors_or_traps_never_aborts modules_too_large_to_run_are_errors_or_traps

# A loop of zero-cell allocations: each empty object is charged one heap
# cell, so the loop ends in the heap bound's memory trap after 2^24
# objects instead of growing the object table until the host aborts.
# The address-space limit keeps a regression from taking the machine's
# memory with it.
echo "==> containment (a loop of zero-cell allocations)"
zero_alloc=$(mktemp --suffix .eir)
trap 'rm -f "$zero_alloc"' EXIT
cat > "$zero_alloc" <<'EOF'
module "zero_alloc" {
  heap_sites 1
  func "main" params=1 regs=4 slots=[] {
  bb0:
    r1 = mov 0
    jmp bb1
  bb1:
    r2 = lt r1, r0
    br r2, bb2, bb3
  bb2:
    r3 = alloc h0, 0
    r1 = add r1, 1
    jmp bb1
  bb3:
    ret r1
  }
}
EOF
zero_alloc_out=$(ulimit -v 4000000 && target/release/encore-cli run "$zero_alloc" --eval-arg 60000000)
grep -F 'Memory("alloc of 0 cells exceeds' <<<"$zero_alloc_out"

# A 100x campaign in 1 GB of address space: snapshots and resumed runs
# share memory page by page, and a write copies one 64-cell page, so
# 164.gzip@100x's golden snapshots hold only the pages each interval
# wrote. When a first write copied the whole object, this campaign
# aborted on a failed allocation here.
echo "==> containment (a 164.gzip@100x campaign under a 1 GB limit)"
gzip_100x=$(mktemp --suffix .eir)
trap 'rm -f "$zero_alloc" "$gzip_100x"' EXIT
target/release/encore-cli demo 164.gzip@100x > "$gzip_100x"
(ulimit -v 1000000 && target/release/encore-cli sfi "$gzip_100x" --train-arg 12800 \
    --eval-arg 25400 --injections 200 --workers 1 --seed 9 > /dev/null)

# A reader that stops early, like `head`, closes the CLI's output pipe:
# the run must end with status 0 instead of panicking on the failed
# write. The demo module is larger than a pipe buffer, so the write is
# still going when `head` exits; `pipefail` makes a failure here fail
# the script.
echo "==> containment (output into a pipe closed early)"
target/release/encore-cli demo 164.gzip@100x | head -c 1 > /dev/null

# Differential fuzz smoke: 64 machine-generated programs (fixed seed —
# cases are a pure function of the property name and index) through the
# splice/stride/worker differential property, plus the per-fault-model
# variant and the adversarial-plan resume/scratch differential. The
# acceptance sweep runs 512 cases; 64 here keeps the gate fast while
# still covering a prefix of the same corpus. (The debug-build test run
# above already checked every splice probe's shared-page compare against
# the full scan.)
echo "==> differential fuzz smoke (64 fixed-seed cases)"
ENCORE_FUZZ_CASES=64 cargo test --release -q --locked --offline --test fuzz_differential -- \
    fuzzed_campaigns_are_splice_stride_and_worker_invariant \
    fuzzed_campaigns_are_invariant_under_every_fault_model \
    fuzzed_fault_plans_agree_between_resume_and_scratch

# The benchmark package has its own workspace, so the workspace test
# run above does not reach its tests (metric names, compare verdicts,
# a smoke of every workload).
echo "==> perfbench tests"
cargo test --release --locked --offline --manifest-path perfbench/Cargo.toml --target-dir .bench_build

echo "==> OK"
