#!/usr/bin/env bash
# CI check for the benchmark crate: formatting, its unit tests, then a
# --quick pass (tiny sizes) over every workload, untraced and traced,
# whose result lines must match the metric names and units that
# BENCHMARK.json lists. Run from anywhere; writes only under
# benchmark/target/.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --check --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"

outdir=benchmark/target/check
mkdir -p "$outdir"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for trace in 0 1; do
    for workload in $workloads; do
        out="$outdir/$workload-trace$trace.out"
        cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$workload" --seed 1 --quick --trace "$trace" >"$out"
        python3 - "$out" "$trace" <<'EOF'
import json, re, sys

path, trace = sys.argv[1], sys.argv[2] == "1"
spec = json.load(open("BENCHMARK.json"))
lines = open(path).read().strip().splitlines()
result = json.loads(lines[-1])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] is True and result["failed"] == 0, result
assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
wanted = spec["per_layer" if trace else "end_to_end"]
got = result["metrics"]
assert [m["name"] for m in wanted] == list(got), "metric names differ from BENCHMARK.json"
for m in wanted:
    assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]), m["name"]
    value = got[m["name"]]
    assert value["unit"] == m["unit"], (m["name"], value["unit"], m["unit"])
    assert isinstance(value["value"], (int, float)), m["name"]
    if not trace:
        assert value["value"] > 0, f"{m['name']} reads 0"
print(f"ok {path}: {len(got)} metrics, {result['attempted']} operations")
EOF
    done
done
echo "benchmark check: OK"
