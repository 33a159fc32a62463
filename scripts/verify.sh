#!/usr/bin/env bash
# Tier-1 verification: hermetic release build + full test suite.
#
# Runs entirely offline — the workspace has no registry dependencies, so
# this must succeed on a machine with no network and no cargo registry
# cache. The workspace_guard test enforces that property; this script is
# the one-command wrapper CI and contributors run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Warnings are errors everywhere in verification. Exported once so every
# cargo invocation below shares the same flags (and therefore the same
# build fingerprints — no mid-script rebuilds).
export RUSTFLAGS="-D warnings"

cargo build --release --offline

# Documentation is part of the contract: every public item across the
# workspace must have rustdoc, and rustdoc warnings (broken intra-doc
# links, missing docs where denied) fail verification.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline

# Static analysis: the in-tree determinism & safety lint, flow-aware
# since v2 (DESIGN.md "Static analysis"). Fails on any deny-severity
# diagnostic (including panic-capable code reachable from the serving
# entry points) and on any rule whose warn count exceeds the committed
# baseline at results/lint_baseline.json. Writes the machine-readable
# report to results/lint_report.json; the same bar runs as
# tests/lint_guard.rs; this surfaces file:line output.
cargo run -q --release --offline -p nlidb-lint -- --format=json

# The full suite twice: once pinned to the exact serial path, once with
# the pool at its default width. The root manifest's `default-members`
# makes a plain `cargo test` cover every crate, so this is the same suite
# tier-1 runs. The threading contract (DESIGN.md "Threading &
# determinism") promises bitwise-identical results either way, so both
# runs must be green.
NLIDB_THREADS=1 cargo test -q --offline
cargo test -q --offline

# The exhaustive `tanh` sweep: every one of the 2^32 inputs of the
# in-tree `nlidb_tensor::math::tanh_slice` against the host's `f32::tanh`
# (glibc 2.36's `tanhf`), fanned across the pool; it must report 0
# mismatches (DESIGN.md "Kernel fast paths"). Ignored in the plain suite
# for its length: about 40 s in release on a 2-vCPU AVX-512 host, longer
# where the slice form runs fewer lanes.
cargo test -q --release --offline -p nlidb-tensor --lib \
    math::tests::exhaustive_sweep_matches_libm -- --ignored --exact

# Bench smoke: confirms the component benchmarks (including the
# blocked-vs-reference matmul, the in-tree-vs-libm tanh, the
# transpose-free one-row product and serial-vs-parallel train-step
# entries) run end to end and write results/bench_components.json.
NLIDB_BENCH_SMOKE=1 cargo bench -q --offline -p nlidb-bench

# Bench-regression gate: the fresh smoke numbers must stay within 25% of
# the committed baseline's min_ns on every ceiling row, and every ratio
# row (the blocked matmul kernel against the reference kernel, the
# in-tree tanh against libm, the one-row A·Bᵀ against transpose-then-
# multiply, and the shard read and warm batch against a fixed
# calibration loop among them) within its limit of a partner row from
# the same run (DESIGN.md "Kernel fast paths"). `cargo bench` writes the fresh results under the
# bench package dir; the baseline is committed at
# results/bench_baseline.json.
cargo run -q --release --offline -p nlidb-bench --bin bench_gate -- \
    crates/bench/results/bench_components.json results/bench_baseline.json

echo "verify: OK"
