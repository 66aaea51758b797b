#!/usr/bin/env bash
# Canonical tier-1 gate (see ROADMAP.md). Must pass on a clean checkout
# with an empty cargo registry cache and no network: the workspace has no
# external dependencies, so --offline is exact, not best-effort.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo fmt --check
# The benchmark crate sits outside the workspace; build it so an API change
# in the rfid-* crates that breaks it fails here. Its artifacts go under the
# ignored root target/.
CARGO_TARGET_DIR=target/benchmark cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Fast single-seed slice of the chaos fault-matrix gate (scripts/chaos.sh
# runs the full multi-seed sweep).
cargo run --release --offline --example chaos_sweep -- --seeds 1
# Trace→counters reconciliation gate: one traced seed per protocol (clean
# and impaired) must replay into its counters bit-for-bit (DESIGN.md §9).
cargo run --release --offline -p rfid-bench --bin obs_report -- --reconcile
# Every bench below writes target/BENCH_<group>.json ({"group", "records"},
# one record per measured value) and exits nonzero if any of its gated
# records misses its bound; the report is written first either way.
# Disabled-path telemetry overhead guard; writes target/BENCH_obs.json.
cargo bench --offline -p rfid-bench --bench obs
# Sweep-engine smoke slice (DESIGN.md §10): a small Table I grid, once
# cold on one worker and once cache-warm at the default width. Writes the
# cells/sec + cache-hit-rate entries to target/BENCH_sweep.json.
rm -rf target/sweep-cache target/BENCH_sweep.json
cargo run --release --offline -p rfid-bench --bin repro -- table1 --runs 2 --max-n 1000 --workers 1
cargo run --release --offline -p rfid-bench --bin repro -- table1 --runs 2 --max-n 1000
# Chaos-soak recovery slice (DESIGN.md §11): small recovery grid asserting
# the convergence invariant (coverage 1.0 wherever loss < 1.0), the
# dead-channel breaker contract and the trace/counter coverage cross-check.
# Writes target/BENCH_recovery.json.
cargo run --release --offline -p rfid-bench --bin repro -- recovery --runs 2 --max-n 500 --workers 1
# Hot-path smoke slice (DESIGN.md §12): end-to-end throughput including a
# 100k-tag run with a tags/sec floor and a 1M-tag HPP run to completion;
# each gated case's speedup against its pre-change baseline is a gated
# record. Writes target/BENCH_hotpath.json.
rm -f target/BENCH_hotpath.json
cargo bench --offline -p rfid-bench --bench hotpath
# Crash-chaos checkpoint/restore gate (DESIGN.md §13): every protocol is
# killed at a seeded slot boundary, snapshotted to JSON, restored into a
# fresh context and run to completion; the final report and event-trace
# digest must be bit-identical to the uninterrupted run (clean + impaired
# channels + a multi-pass recovery kill), and every kill must really
# snapshot. Writes target/BENCH_session.json.
rm -f target/BENCH_session.json
cargo bench --offline -p rfid-bench --bench session
# Profiling-plane gate (DESIGN.md §14): the disabled span path must stay
# within timer noise of the profiled run, full profiling on a 100k-tag HPP
# session must stay under its overhead ceiling, and profiling on/off must
# be bit-identical (report, counters, trace digest). Writes
# target/BENCH_obsplane.json.
rm -f target/BENCH_obsplane.json
cargo bench --offline -p rfid-bench --bench obsplane
# Daemon serving gate (DESIGN.md §15): an in-process fleet on port 0
# absorbs hundreds of sessions from concurrent TCP clients plus a loopback
# baseline; every session must complete, and the report records
# sessions/sec and latency percentiles. The smoke run then serves one clean
# and one impaired session over real TCP and shuts down cleanly over the
# wire. Writes target/BENCH_daemon.json.
rm -f target/BENCH_daemon.json
cargo bench --offline -p rfid-bench --bench daemon
cargo run --release --offline -p rfid-bench --bin rfid_daemon -- --smoke
# Fleet-resilience gate (DESIGN.md §16): the chaos-soak grid drives every
# session through seeded byte flips, connection cuts, loss bursts, a
# daemon-side kill and admission-control shedding; every session must
# recover to a report and trace digest bit-identical to the clean run
# (recovery rate 1.0), with faults-injected, retry, resurrection, shed and
# drain floors gated.
# The chaos-smoke run then proves one seed end-to-end over real TCP.
rm -f target/BENCH_resilience.json
cargo bench --offline -p rfid-bench --bench resilience
cargo run --release --offline -p rfid-bench --bin rfid_daemon -- --chaos-smoke

echo "verify: OK"
