//! The metric catalogue and the per-run report.
//!
//! The names and units here are the ones `BENCHMARK.json` at the repo
//! root lists (a unit test holds the two in step). An untraced run emits
//! every end-to-end metric; a traced run emits every per-layer metric,
//! with 0 for a layer the workload never enters.

use std::collections::{BTreeMap, BTreeSet};

use rfid_system::Json;

use crate::stats;

/// End-to-end metrics: what a user of the fleet or the simulator sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_refs", "refs"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not depend on a protocol.
const LAYERS: &[(&str, &str)] = &[
    ("wire.payload_encode_us", "us"),
    ("wire.payload_parse_us", "us"),
    ("wire.frame_encode_us", "us"),
    ("wire.frame_decode_us", "us"),
    ("wire.transport_us", "us"),
    ("wire.bytes_per_op", "bytes"),
    ("wire.frames_per_op", "count"),
    ("daemon.open_us", "us"),
    ("daemon.run_us", "us"),
    ("daemon.close_us", "us"),
    ("daemon.checkpoint_us", "us"),
    ("daemon.resume_us", "us"),
    ("daemon.verb_errors", "count"),
    ("workloads.scenario_build_us", "us"),
    ("system.ctx_new_us", "us"),
    ("system.trace_jsonl_us", "us"),
    ("hash.fnv64_us", "us"),
    ("system.trace_events", "count"),
    ("system.trace_bytes", "bytes"),
    ("protocols.session_open_us", "us"),
    ("protocols.snapshot_us", "us"),
    ("protocols.snapshot_bytes", "bytes"),
    ("protocols.restore_us", "us"),
    ("protocols.run_us", "us"),
    ("protocols.report_json_us", "us"),
    ("protocols.steps", "count"),
    ("protocols.round_self_ns_per_tag", "ns"),
    ("system.poll_self_ns_per_tag", "ns"),
    ("system.slot_self_ns_per_tag", "ns"),
    ("trace.coverage_open", "ratio"),
    ("trace.coverage_run", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The inventoried protocols, with the crate that implements each.
pub const PROTOCOL_CRATES: &[(&str, &str)] = &[
    ("HPP", "protocols"),
    ("TPP", "protocols"),
    ("EHPP", "protocols"),
    ("FSA", "baselines"),
    ("Q-algo", "identify"),
    ("BinSplit", "identify"),
    ("QueryTree", "identify"),
];

/// Large-population throughput: the traced pass of `inventory_polling`
/// only (see `inventory::LargeRun`).
const LARGE_POPULATION: &[(&str, &str)] = &[("protocols.HPP_1M.tags_per_s", "tags/s")];

/// The paper's polling protocols, whose simulated air time and vector
/// length are reported.
pub const POLLING_PROTOCOLS: &[&str] = &["HPP", "TPP", "EHPP"];

/// `<crate>.<protocol>` for a protocol display name.
pub fn qualified(protocol: &str) -> String {
    let krate = PROTOCOL_CRATES
        .iter()
        .find(|(p, _)| *p == protocol)
        .map_or("protocols", |(_, c)| c);
    format!("{krate}.{protocol}")
}

/// Every per-layer metric, in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (p, _) in PROTOCOL_CRATES {
        out.push((format!("{}.tags_per_s", qualified(p)), "tags/s"));
    }
    out.extend(LARGE_POPULATION.iter().map(|(n, u)| (n.to_string(), *u)));
    for p in POLLING_PROTOCOLS {
        out.push((format!("c1g2.{p}.air_us_per_tag"), "us"));
    }
    for (p, _) in PROTOCOL_CRATES {
        out.push((format!("{}.slot_efficiency", qualified(p)), "ratio"));
    }
    for p in POLLING_PROTOCOLS {
        out.push((format!("protocols.{p}.mean_vector_bits"), "bits"));
    }
    out
}

/// What one run of one workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced (per-layer) pass.
    pub traced: bool,
    /// Operations attempted (sessions, or inventory cycles).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Values recorded for the reader but not gated: tail percentiles
    /// with their sample counts, phase lengths, the failed ratio.
    pub diagnostics: BTreeMap<String, f64>,
}

impl RunReport {
    /// A report for `workload` under `seed`.
    pub fn new(workload: &str, seed: u64, traced: bool) -> RunReport {
        RunReport {
            workload: workload.to_string(),
            seed,
            traced,
            ..RunReport::default()
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets a diagnostic.
    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.diagnostics.insert(name.into(), value);
    }

    /// Sets every per-layer metric found in per-operation `totals` to its
    /// median over operations (`daemon.verb_errors` to its sum), and
    /// notes each span's median self time per operation.
    pub fn set_layers(&mut self, totals: &BTreeMap<u64, BTreeMap<String, f64>>) {
        let catalogue: BTreeSet<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let keys: BTreeSet<&String> = totals.values().flat_map(|t| t.keys()).collect();
        for key in keys {
            if key == "daemon.verb_errors" {
                let errors = totals.values().filter_map(|t| t.get(key)).sum();
                self.set(key.clone(), errors);
            } else if catalogue.contains(key) {
                self.set(key.clone(), crate::spans::median_over_ops(totals, key));
            } else if key.starts_with("self.") {
                self.note(key.clone(), crate::spans::median_over_ops(totals, key));
            }
        }
    }

    /// Sets `op_p50_refs`, the median of the ascending operation times
    /// `in_refs`, each counted in passes of the reference loop timed in
    /// its window (see `reference`), which takes out how fast the shared
    /// host ran in that window. Notes the ascending wall times `sorted`
    /// (scaled by `scale` to ms): their 5th percentile as `op_p5_ms`,
    /// their mean and their tails.
    pub fn set_op_times(&mut self, sorted: &[f64], scale: f64, in_refs: &[f64]) {
        if let Some(q) = stats::percentile(in_refs, 50.0) {
            self.set("op_p50_refs", q.value);
        }
        if let Some(q) = stats::percentile(sorted, 5.0) {
            self.note("op_p5_ms", q.value * scale);
        }
        self.note("op_mean_ms", stats::mean(sorted) * scale);
        self.note_tails("op_ms", sorted, scale);
    }

    /// Sets `trace.overhead_pct` from the traced phase's operation times
    /// (in the unit `set_op_times` was given, before scaling): how much
    /// their 5th percentile exceeds the untraced phase's wall-time one.
    pub fn set_trace_overhead(&mut self, traced: &[f64], scale: f64) {
        let untraced = self.diagnostics.get("op_p5_ms").copied().unwrap_or(0.0);
        if let Some(q) = stats::percentile(&stats::sorted(traced), 5.0) {
            if untraced > 0.0 {
                self.set(
                    "trace.overhead_pct",
                    100.0 * (q.value * scale / untraced - 1.0),
                );
            }
        }
    }

    /// Notes p50, p90, p99 and p99.9 of ascending `sorted` samples
    /// (scaled by `scale`), each with how many samples lie beyond it, plus
    /// the highest percentile with at least ten beyond.
    pub fn note_tails(&mut self, what: &str, sorted: &[f64], scale: f64) {
        self.note(format!("{what}.samples"), sorted.len() as f64);
        for p in [50.0, 90.0, 99.0, 99.9] {
            if let Some(q) = stats::percentile(sorted, p) {
                self.note(format!("{what}.p{p}"), q.value * scale);
                self.note(format!("{what}.p{p}.beyond"), q.beyond as f64);
            }
        }
        if let Some(q) = stats::highest_reportable(sorted, &[50.0, 90.0, 99.0, 99.9]) {
            self.note(format!("{what}.highest_reportable_p"), q.p);
        }
    }

    /// Every operation attempted succeeded and passed its output check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The process exit code this report calls for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The metrics this run must emit, with units, in catalogue order.
    pub fn emitted(&self) -> Vec<(String, f64, &'static str)> {
        let catalogue: Vec<(String, &'static str)> = if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        catalogue
            .into_iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .emitted()
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Json::Obj(vec![
                        ("value".to_string(), Json::Float(value)),
                        ("unit".to_string(), Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::UInt(self.attempted)),
            ("failed".to_string(), Json::UInt(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }

    /// The full record written under the results directory.
    pub fn record_json(&self) -> Json {
        let map = |m: &BTreeMap<String, f64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("workload".to_string(), Json::str(&self.workload)),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("result".to_string(), self.result_json()),
            ("all_values".to_string(), map(&self.metrics)),
            ("diagnostics".to_string(), map(&self.diagnostics)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Human-readable lines: every emitted metric with its unit, then the
    /// diagnostics.
    pub fn print_lines(&self) {
        for (name, value, unit) in self.emitted() {
            println!("{:<16} {name:<40} {value:>16.4} {unit}", self.workload);
        }
        for (name, value) in &self.diagnostics {
            println!("{:<16} (diag) {name:<33} {value:>16.4}", self.workload);
        }
        for f in &self.failures {
            println!("{:<16} FAILED: {f}", self.workload);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names are what the benchmark contract allows.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
    }

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(|v| v.as_arr().ok())
            .expect("metric list")
            .iter()
            .map(|m| (m.field("name").unwrap(), m.field("unit").unwrap()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = spec();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&spec, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&spec, "per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.len() <= 16 + 128);
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(!valid_name("a/b") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = RunReport::new("serve_small", 1, false);
        r.attempted = 3;
        assert!(r.correct());
        assert_eq!(r.exit_code(), 0);
        r.fail("digest mismatch");
        assert!(!r.correct());
        assert_ne!(r.exit_code(), 0);
        let line = r.result_json().to_string();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
    }

    #[test]
    fn op_times_gate_the_median_in_passes_and_overhead_compares_wall_p5() {
        let mut r = RunReport::new("inventory_polling", 1, true);
        // 1..=100 µs: the 5th percentile is the 5th sample, 5 µs.
        let untraced: Vec<f64> = (1..=100).map(f64::from).collect();
        let in_refs: Vec<f64> = untraced.iter().map(|us| us / 4.0).collect();
        r.set_op_times(&untraced, 1e-3, &in_refs);
        assert_eq!(r.metrics["op_p50_refs"], 12.5);
        assert_eq!(r.diagnostics["op_p5_ms"], 0.005);
        assert_eq!(r.diagnostics["op_mean_ms"], 0.0505);
        let traced: Vec<f64> = untraced.iter().rev().map(|us| us * 1.5).collect();
        r.set_trace_overhead(&traced, 1e-3);
        assert!((r.metrics["trace.overhead_pct"] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn traced_runs_emit_every_layer_with_zero_for_unused_ones() {
        let mut r = RunReport::new("inventory_aloha", 1, true);
        r.set("identify.Q-algo.tags_per_s", 12.5);
        let emitted = r.emitted();
        assert_eq!(emitted.len(), per_layer().len());
        assert!(emitted
            .iter()
            .any(|(n, v, _)| n == "identify.Q-algo.tags_per_s" && *v == 12.5));
        assert!(emitted
            .iter()
            .any(|(n, v, _)| n == "wire.transport_us" && *v == 0.0));
    }
}
