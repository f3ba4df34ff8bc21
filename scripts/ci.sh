#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints (deny warnings), the full test suite,
# and the benchmark's own test mode so every benchmark workload is
# exercised end-to-end on every run.
#
# Every workspace member — including the serving layer (crates/serve) —
# rides the workspace-wide gates below. The serving, overload and
# out-of-core paths are pinned by tests (tests/serving.rs,
# tests/parallel_matches_serial.rs, tests/transport_equivalence.rs);
# `perfbench/run.py --test` additionally runs each benchmark workload at
# tiny size: Pregel in-process, MapReduce over spawned `itworker`
# processes, Pregel under a spill budget with a checkpoint every
# superstep, and a closed loop of clients on GnnServer.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== itlint --check (static gates vs lint/baseline.toml) =="
# Workspace determinism/panic-freedom gates (crates/lint): wall-clock
# reads, panics in library paths, hash-order iteration, ad-hoc threads,
# env reads. Fails on any violation above the committed ratcheting
# baseline; burn debt with `itlint --write-baseline` after fixing.
cargo run -p inferturbo_lint --release --quiet -- --check

echo "== cargo clippy --workspace --all-targets (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --examples =="
# Examples are the documented entry points; drift fails the gate.
cargo build --examples

echo "== cargo doc --workspace --no-deps (warnings denied) =="
# Broken intra-doc links and malformed rustdoc fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== cargo test --workspace (forced fault schedule) =="
# Re-runs the whole suite with a worker loss injected at superstep 1 of
# every 2+-worker Pregel run. Env auto-arming (FaultPlan::from_env +
# RecoveryPolicy::default) turns every engine test into a
# checkpoint/recovery gate; tests that set an explicit fault schedule or
# recovery policy are immune by design.
INFERTURBO_FAULTS=worker:1@step:1 cargo test --workspace -q

echo "== engine + determinism tests (spawned-worker-process transport) =="
# Re-runs the engine determinism suites with the shuffle transport forced
# to the spawned-worker-process backend (both engines default their
# transport from INFERTURBO_TRANSPORT). Every inter-superstep/inter-round
# exchange crosses a real process boundary over pipes; logits and traces
# must stay bit-identical to the in-process default. The `itworker` child
# binary was built by the workspace test legs above; tests that pin a
# transport explicitly (e.g. transport_equivalence) are immune by design.
INFERTURBO_TRANSPORT=process cargo test -q \
    --test parallel_matches_serial --test columnar_fused \
    --test end_to_end --test failure_injection

echo "== serving tests (forced overload knobs) =="
# Re-runs the serving suite with an aggressive Degrade-policy rate limit
# and deadline clamp armed into every default-constructed ServeConfig
# (ServeConfig::default reads INFERTURBO_OVERLOAD). Untenanted requests
# bypass the limiter and the clamp only tightens deadlines a request
# already carries, so the knob is inert for existing traffic — the leg
# proves the overload plane can be armed fleet-wide without perturbing a
# single served answer. Tests that pin rate_limit/deadline_clamp
# explicitly are immune by design.
INFERTURBO_OVERLOAD=bucket:1,refill:1,deadline:1 \
    cargo test -q --test serving

echo "== serving + trace tests (flight recorder armed) =="
# Re-runs the serving and trace-determinism suites with the flight
# recorder armed fleet-wide (SessionBuilder / ServeConfig defaults read
# INFERTURBO_TRACE via the sanctioned crates/obs arming hook). Recording
# every superstep, round and ticket lifecycle must not perturb a single
# served answer; tests that pass an explicit TraceHandle are unaffected
# by design.
INFERTURBO_TRACE=1 cargo test -q --test serving --test trace_determinism

echo "== perfbench/run.py --test (every benchmark workload, tiny size) =="
# Builds the release `itworker` and the perfbench package into its own
# target directory, runs the package's tests, then the smoke test: each
# workload end to end, checked for correctness and zero failed operations.
python3 perfbench/run.py --test

echo "CI OK"
