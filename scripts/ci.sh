#!/usr/bin/env bash
# CI entry point: the checks every PR must pass, runnable fully offline.
#
#   ./scripts/ci.sh          # fmt + build + test + bench gate + clippy + docs
#   FUZZ=1 ./scripts/ci.sh   # additionally run the widened property sweeps
#
# FUZZ=1 multiplies the sharded property-test case counts ~5x
# (CASES 24 -> 128); in the hosted workflow those sweeps run as a
# nightly scheduled job plus an opt-in `ci-fuzz` PR label rather than
# on every push — see .github/workflows/ci.yml.  Locally the knob runs
# them inline.
#
# The workspace has no external dependencies, so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The repository benchmark (kpabench/, its own workspace) builds
# against the crates' public surface — ModelArtifact, EvalCtx, and the
# reference Model::new/sat/holds_everywhere/prob_interval its output
# check uses — so build and self-test it here: a change that breaks
# that surface fails CI, not the benchmark run.
echo "==> cargo test --release --offline --manifest-path kpabench/Cargo.toml"
cargo test --release --offline --manifest-path kpabench/Cargo.toml

# The serial/parallel differential suites at a pinned serial width and
# a pinned parallel width: KPA_THREADS=1 is the reference semantics, and
# KPA_THREADS=4 must reproduce it bit-for-bit regardless of core count.
# RUST_TEST_THREADS rides along so the sharded case splits inside each
# binary line up with the pool width (tests/common shards by it).
# measure_kernel_differential pins the dense word-masked measure kernel
# against the generic scan, plan_differential pins the batched
# sample-plan table against the naive per-point path,
# trace_invisibility pins bit-identical results with kpa-trace off and
# on, shared_artifact_differential pins M client threads over one
# Arc<ModelArtifact> against the serial Model facade, and
# serve_differential/serve_protocol pin the kpa-serve loopback service
# (wire answers bit-identical to the serial model; malformed, fuzzed,
# oversized, and mid-batch-disconnect frames never wedge a server),
# all at each width — the pool width inside the server comes from
# KPA_THREADS, so the matrix re-certifies the service end to end.
for threads in 1 4; do
    echo "==> KPA_THREADS=${threads} RUST_TEST_THREADS=${threads} cargo test -q --offline --test parallel_differential --test memo_consistency --test measure_kernel_differential --test plan_differential --test trace_invisibility --test shared_artifact_differential --test serve_differential --test serve_protocol --test compile_differential"
    KPA_THREADS="${threads}" RUST_TEST_THREADS="${threads}" cargo test -q --offline \
        --test parallel_differential --test memo_consistency \
        --test measure_kernel_differential --test plan_differential \
        --test trace_invisibility --test shared_artifact_differential \
        --test serve_differential --test serve_protocol \
        --test compile_differential
done

# The bench gate checks itself before anything trusts its PASS: the
# selftest trips each failure path (profile lookup naming the files,
# the floor, relative, positivity, and unrecognized-key checks) on
# synthetic inputs.
echo "==> python3 scripts/check_bench.py --selftest"
python3 scripts/check_bench.py --selftest

# Bench smoke + regression gates: the kernel bench asserts its output
# identities, the dense measure kernel's ≥ 2× bound, the compiled
# threshold family's ≥ 2× bound, and the sample plan's ≥ 2× bound; the
# shared bench asserts shared-artifact results bit-identical to the
# serial facade and times the sharded memos.  The serve soak bench
# asserts wire answers bit-identical to the serial facade, then times
# loopback clients and exports the frame latency histogram.  The scale
# ladder builds 10^4/10^5/10^6-point systems, asserts the wide
# footprint-skipping set kernel bit-identical to (and ≥ 2× faster at
# 10^6 than) the scalar full-span reference, and reports per-point
# throughput per rung.  scripts/check_bench.py then compares the
# fresh speedup ratios against the committed BENCH_8.json,
# BENCH_6.json, BENCH_7.json and BENCH_9.json (30% tolerance) and the
# fresh trace report against TRACE_10.json (schema v2 incl. rolling
# windows + span sites, dense-path, plan-hit-rate, and wide-kernel
# counters, exact).  The fresh rows go to
# target/ so the committed baselines are not clobbered; regenerate the
# baselines with a plain ./scripts/bench.sh.
echo "==> scripts/bench.sh (kernel + shared + serve soak + scale ladder bench smoke + regression gates)"
KPA_BENCH8_JSON="${KPA_BENCH8_JSON:-target/BENCH_8.fresh.json}" \
    KPA_TRACE_JSON="${KPA_TRACE_JSON:-target/TRACE_10.fresh.json}" \
    KPA_BENCH6_JSON="${KPA_BENCH6_JSON:-target/BENCH_6.fresh.json}" \
    KPA_BENCH7_JSON="${KPA_BENCH7_JSON:-target/BENCH_7.fresh.json}" \
    KPA_BENCH9_JSON="${KPA_BENCH9_JSON:-target/BENCH_9.fresh.json}" ./scripts/bench.sh

if [[ "${FUZZ:-0}" == "1" ]]; then
    echo "==> cargo test -q --offline --workspace --features fuzz"
    cargo test -q --offline --workspace --features fuzz
fi

if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> clippy not installed; skipping lint step"
fi

# Broken or private intra-doc links fail the docs build.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --lib --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "CI checks passed."
