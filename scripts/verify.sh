#!/usr/bin/env bash
# Canonical tier-1 gate (see ROADMAP.md). Must pass on a clean checkout
# with an empty cargo registry cache and no network: the workspace has no
# external dependencies, so --offline is exact, not best-effort.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# Every correctness gate is a test: the kill/restore bit-identity rows
# (tests/session_roundtrip.rs), the fault matrix and its flight bundles
# (tests/fault_matrix.rs), recovery convergence under loss, bursts and
# corruption (tests/recovery_regression.rs) and the served TCP sessions
# (tests/daemon_serving.rs) all run here. `--no-fail-fast` runs every
# test binary even after one fails, so one failure hides no other.
cargo test -q --offline --no-fail-fast
# The Q-algorithm's lazy-frame equivalence gate at 1 000 and 5 000 tags
# makes 800 runs of the eager oracle, which take minutes unoptimized, so
# debug builds ignore it and it runs here, optimized (~30 s on 2 vCPUs).
cargo test --release -q --offline -p rfid-identify --lib
# Every example runs once: each is an end-to-end use of the facade, and
# their asserts (exact reads, recovered completions, orderings) are
# checks too.
for example in examples/*.rs; do
    cargo run --release --offline -q --example "$(basename "$example" .rs)" > /dev/null
done
cargo fmt --check
# Lints deny warnings too; each `#[allow(clippy::...)]` states its reason.
cargo clippy --workspace --all-targets --offline
# Rustdoc runs under the workspace's `warnings = "deny"`, so a doc link to a
# renamed or deleted item fails the gate.
cargo doc --workspace --no-deps --offline
# The benchmark crate sits outside the workspace. Its own check builds it
# (so an API change in the rfid-* crates that breaks it fails here), runs
# its unit tests, including the served-vs-in-process digest check through
# rfid_daemon::Service, and makes a --quick pass over every workload. Its
# artifacts go under the ignored benchmark/target/.
benchmark/check.sh
# Every bench below writes target/BENCH_<group>.json ({"group", "records"},
# one record per measured value) and exits nonzero if any of its gated
# records misses its bound; the report is written first either way.
# Disabled-path telemetry and span overhead guards, the full-profiling
# ceiling (DESIGN.md §14) and the streamed trace-digest guards; writes
# target/BENCH_obs.json. Profiling on/off bit identity is a `cargo test`.
cargo bench --offline -p rfid-bench --bench obs
# Sweep-engine determinism slice (DESIGN.md §10): a small Table I grid on
# one worker and at the default width must print byte-identical tables.
# Writes the cells/sec and wall-time entries to target/BENCH_sweep.json;
# the two tables stay in target/ for inspection.
rm -f target/BENCH_sweep.json
cargo run --release --offline -q -p rfid-bench --bin repro -- table1 --runs 2 --max-n 1000 --workers 1 > target/repro_table1_serial.txt
cargo run --release --offline -q -p rfid-bench --bin repro -- table1 --runs 2 --max-n 1000 > target/repro_table1_parallel.txt
cmp target/repro_table1_serial.txt target/repro_table1_parallel.txt
# The paper reproduction itself: every table and figure `repro all` prints
# at the default 20 runs must be byte-identical to the committed
# repro_output.txt (~30 s on 2 vCPUs), so no change moves a paper number
# unnoticed.
cargo run --release --offline -q -p rfid-bench --bin repro -- all --runs 20 > target/repro_all.txt
cmp target/repro_all.txt repro_output.txt
# Hot-path smoke slice (DESIGN.md §12): end-to-end throughput including a
# 100k-tag run with a tags/sec floor and a 1M-tag HPP run to completion;
# each gated case's tags/sec against its floor is a gated record. Writes
# target/BENCH_hotpath.json.
rm -f target/BENCH_hotpath.json
cargo bench --offline -p rfid-bench --bench hotpath
# Daemon serving gate (DESIGN.md §15): an in-process fleet on port 0
# absorbs hundreds of sessions from concurrent TCP clients plus a loopback
# baseline; every session must complete, and the report records
# sessions/sec and latency percentiles. A served 2k-tag checkpoint must
# encode in at most 8 KiB, so a tag list cannot creep back into served
# snapshots. Writes target/BENCH_daemon.json.
rm -f target/BENCH_daemon.json
cargo bench --offline -p rfid-bench --bench daemon
# Fleet-resilience gate (DESIGN.md §16): the chaos-soak grid drives every
# session through seeded byte flips, connection cuts, loss bursts, a
# daemon-side kill and admission-control shedding; every session must
# recover to a report and trace digest bit-identical to the clean run
# (recovery rate 1.0), with faults-injected, retry, resurrection, shed and
# drain floors gated. Writes target/BENCH_resilience.json.
rm -f target/BENCH_resilience.json
cargo bench --offline -p rfid-bench --bench resilience
# Per-crate size and public surface (non-test lines, `pub` and
# `pub(crate)` declarations). It prints counts and gates nothing.
scripts/surface.sh

echo "verify: OK"
