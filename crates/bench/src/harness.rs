//! A dependency-free bench harness and the one bench-report schema.
//!
//! Stands in for Criterion with the subset these benches need: per-bench
//! iteration-count calibration against a target sample duration, repeated
//! samples summarized by [`crate::stats::Summary`], an optional substring
//! filter from the command line, and gated custom measurements. Building it
//! in-repo keeps `cargo bench` working offline with an empty cargo registry.
//!
//! Every bench report is `BENCH_<group>.json` = `{"group", "records": [...]}`,
//! one [`BenchRecord`] per measured value, written by [`write_report`] and
//! nothing else. A record that carries a [`Gate`] is checked where it is
//! measured: [`Bench::finish`] writes the report first, then exits nonzero
//! if any gate failed or any value is not finite.
//!
//! A bench binary is a plain `fn main()` (the workspace sets
//! `harness = false` for every `[[bench]]` target):
//!
//! ```no_run
//! use rfid_bench::{Bench, BenchRecord, Gate};
//!
//! let mut b = Bench::new("example");
//! b.bench("add", || std::hint::black_box(2u64) + 2);
//! b.record(BenchRecord::new("sum", "value", "count", 4.0).gate(Gate::AtLeast(4.0)));
//! b.finish();
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use rfid_system::{FromJson, Json, JsonError, ToJson};

use crate::stats::Summary;

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLES: usize = 10;
/// Calibration aims for samples of roughly this duration.
const TARGET_SAMPLE_NANOS: u128 = 5_000_000;
/// Never fold more than this many iterations into one sample.
const MAX_ITERS_PER_SAMPLE: u64 = 1_000_000;

/// A pass condition on a record's value. Both bounds are inclusive; a NaN
/// value passes neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The value must be ≥ the bound.
    AtLeast(f64),
    /// The value must be ≤ the bound.
    AtMost(f64),
}

impl Gate {
    /// Whether `value` meets this gate.
    pub(crate) fn passes(self, value: f64) -> bool {
        match self {
            Gate::AtLeast(bound) => value >= bound,
            Gate::AtMost(bound) => value <= bound,
        }
    }
}

/// One measured value of a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// What was measured within the group (a bench name or case label).
    pub(crate) case: String,
    /// Inputs that identify the case, such as population size.
    pub(crate) params: Vec<(String, Json)>,
    /// Name of the measured quantity.
    pub(crate) metric: String,
    /// Unit of `value`.
    pub(crate) unit: String,
    /// The measurement.
    pub(crate) value: f64,
    /// Per-sample statistics when `value` is a mean over timed samples.
    pub(crate) summary: Option<Summary>,
    /// Pass condition checked by [`Bench::finish`].
    pub(crate) gate: Option<Gate>,
}

impl BenchRecord {
    /// An ungated record without parameters or samples.
    pub fn new(case: &str, metric: &str, unit: &str, value: f64) -> Self {
        BenchRecord {
            case: case.to_string(),
            params: Vec::new(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            value,
            summary: None,
            gate: None,
        }
    }

    /// Adds a parameter.
    #[must_use]
    pub fn param(mut self, name: &str, value: &(impl ToJson + ?Sized)) -> Self {
        self.params.push((name.to_string(), value.to_json()));
        self
    }

    /// Sets (or, with `None`, clears) the gate.
    #[must_use]
    pub fn gate(mut self, gate: impl Into<Option<Gate>>) -> Self {
        self.gate = gate.into();
        self
    }

    /// Whether the value is finite and meets its gate, if any.
    pub(crate) fn passes(&self) -> bool {
        self.value.is_finite() && self.gate.map_or(true, |g| g.passes(self.value))
    }

    /// One human-readable line: case, metric, value and gate verdict.
    fn describe(&self) -> String {
        let value = if self.value.abs() >= 100.0 {
            format!("{:.0}", self.value)
        } else {
            format!("{:.3}", self.value)
        };
        let verdict = match self.gate {
            _ if !self.value.is_finite() => " (not finite: FAILED)".to_string(),
            None => String::new(),
            Some(g) => {
                let (op, bound) = match g {
                    Gate::AtLeast(b) => ("≥", b),
                    Gate::AtMost(b) => ("≤", b),
                };
                let ok = if self.passes() { "ok" } else { "FAILED" };
                format!(" ({op} {bound}: {ok})")
            }
        };
        format!(
            "{}: {} = {value} {}{verdict}",
            self.case, self.metric, self.unit
        )
    }
}

impl ToJson for BenchRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("case".to_string(), self.case.to_json()),
            ("params".to_string(), Json::Obj(self.params.clone())),
            ("metric".to_string(), self.metric.to_json()),
            ("unit".to_string(), self.unit.to_json()),
            ("value".to_string(), self.value.to_json()),
        ];
        if let Some(summary) = &self.summary {
            fields.push(("summary".to_string(), summary.to_json()));
        }
        if let Some(gate) = self.gate {
            let (key, bound) = match gate {
                Gate::AtLeast(b) => ("at_least", b),
                Gate::AtMost(b) => ("at_most", b),
            };
            let gate = Json::Obj(vec![
                (key.to_string(), bound.to_json()),
                ("pass".to_string(), self.passes().to_json()),
            ]);
            fields.push(("gate".to_string(), gate));
        }
        Json::Obj(fields)
    }
}

impl FromJson for BenchRecord {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let params = match json.get("params") {
            Some(Json::Obj(fields)) => fields.clone(),
            _ => Vec::new(),
        };
        let gate = match json.get("gate") {
            None => None,
            Some(g) => Some(match (g.get("at_least"), g.get("at_most")) {
                (Some(b), _) => Gate::AtLeast(b.as_f64()?),
                (_, Some(b)) => Gate::AtMost(b.as_f64()?),
                _ => return Err(JsonError("gate needs `at_least` or `at_most`".into())),
            }),
        };
        Ok(BenchRecord {
            case: json.field("case")?,
            params,
            metric: json.field("metric")?,
            unit: json.field("unit")?,
            // Non-finite values are written as `null`.
            value: json.field::<Option<f64>>("value")?.unwrap_or(f64::NAN),
            summary: json.get("summary").map(Summary::from_json).transpose()?,
            gate,
        })
    }
}

/// Writes `BENCH_<group>.json` = `{"group", "records"}` into `dir` and
/// returns its path. The only writer of bench reports.
pub(crate) fn write_report(
    dir: &Path,
    group: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{group}.json"));
    let doc = Json::Obj(vec![
        ("group".to_string(), group.to_json()),
        (
            "records".to_string(),
            Json::Arr(records.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    std::fs::write(&path, doc.to_pretty_string() + "\n")?;
    Ok(path)
}

/// A group of related measurements sharing one report file.
#[derive(Debug)]
pub struct Bench {
    group: String,
    samples: usize,
    filter: Option<String>,
    records: Vec<BenchRecord>,
}

impl Bench {
    /// A new group. Reads the process arguments: the first argument that is
    /// not a `-`-flag (cargo passes `--bench`) becomes a substring filter on
    /// benchmark names, mirroring `cargo bench <filter>`.
    pub fn new(group: &str) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Bench {
            group: group.to_string(),
            samples: DEFAULT_SAMPLES,
            filter,
            records: Vec::new(),
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples >= 2, "need at least 2 samples");
        self.samples = samples;
        self
    }

    /// Whether the command-line filter selects `label` (always true with no
    /// filter).
    pub fn wants(&self, label: &str) -> bool {
        self.filter.as_deref().map_or(true, |f| label.contains(f))
    }

    /// Times `f`, recording per-iteration nanoseconds (metric
    /// `ns_per_iter`, the mean, with the per-sample summary), and returns
    /// the summary — `None` when the filter skips `name`. The iteration
    /// count per sample is calibrated from one untimed warm-up run so that
    /// cheap operations are batched while multi-millisecond runs execute
    /// once per sample.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Option<Summary> {
        if !self.wants(name) {
            return None;
        }
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().as_nanos().max(1);
        let iters = (TARGET_SAMPLE_NANOS / once).clamp(1, MAX_ITERS_PER_SAMPLE as u128) as u64;

        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        let nanos = Summary::of(&per_iter);
        println!(
            "{}/{name}: {} ± {} ({} samples × {iters} iters)",
            self.group,
            format_nanos(nanos.mean),
            format_nanos(nanos.std),
            nanos.count,
        );
        let mut record = BenchRecord::new(name, "ns_per_iter", "ns", nanos.mean)
            .param("iters_per_sample", &iters);
        record.summary = Some(nanos);
        self.records.push(record);
        Some(nanos)
    }

    /// Adds a custom record, printing it with its gate verdict at once.
    pub fn record(&mut self, record: BenchRecord) {
        println!("{}/{}", self.group, record.describe());
        self.records.push(record);
    }

    /// Writes `BENCH_<group>.json` into the nearest enclosing `target/`
    /// directory (cargo runs benches from the package dir, so the workspace
    /// `target/` may be a few levels up; falls back to the current
    /// directory), then exits nonzero if the report could not be written,
    /// any gate failed or any value is not finite. Writes nothing when a
    /// filter excluded every measurement.
    pub fn finish(self) {
        if self.records.is_empty() {
            return;
        }
        if let Err(e) = self.conclude(&find_target_dir().unwrap_or_default()) {
            eprintln!("{}: {e}", self.group);
            std::process::exit(1);
        }
    }

    /// [`Bench::finish`] without the exit: writes the report into `dir`,
    /// then fails on a write error or any record that does not pass.
    fn conclude(&self, dir: &Path) -> Result<(), String> {
        let path = write_report(dir, &self.group, &self.records)
            .map_err(|e| format!("could not write report in {}: {e}", dir.display()))?;
        println!("report: {}", path.display());
        let failed: Vec<String> = self
            .records
            .iter()
            .filter(|r| !r.passes())
            .map(BenchRecord::describe)
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("gate FAILED:\n  {}", failed.join("\n  ")))
        }
    }
}

/// The nearest `target/` directory at or above the current directory —
/// honours `CARGO_TARGET_DIR` when set. Shared by the bench reports
/// (`BENCH_*.json`) and the sweep engine's default cache root.
pub fn find_target_dir() -> Option<PathBuf> {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        let dir = PathBuf::from(dir);
        if dir.is_dir() {
            return Some(dir);
        }
    }
    let mut at = std::env::current_dir().ok()?;
    loop {
        let candidate = at.join("target");
        if candidate.is_dir() {
            return Some(candidate);
        }
        if !at.pop() {
            return None;
        }
    }
}

fn format_nanos(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_bench(group: &str) -> Bench {
        // Tests construct directly to bypass the CLI-filter sniffing (the
        // test runner's own arguments must not filter benches).
        Bench {
            group: group.to_string(),
            samples: 3,
            filter: None,
            records: Vec::new(),
        }
    }

    /// A fresh, empty scratch directory unique to this test process.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rfid-bench-harness-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bench_records_positive_timings() {
        let mut b = quiet_bench("t");
        let nanos = b.bench("count", || (0..1000u64).sum::<u64>()).unwrap();
        assert_eq!(b.records.len(), 1);
        let r = &b.records[0];
        assert_eq!(r.metric, "ns_per_iter");
        assert_eq!(r.summary, Some(nanos));
        assert_eq!(r.value, nanos.mean);
        assert!(nanos.mean > 0.0);
        assert_eq!(nanos.count, 3);
        assert!(r.params[0].1.as_u64().unwrap() >= 1);
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let mut b = quiet_bench("t");
        b.filter = Some("tree".to_string());
        assert!(b.bench("hash", || 1u64).is_none());
        assert!(b.bench("tree_build", || 1u64).is_some());
        assert_eq!(b.records.len(), 1);
        assert_eq!(b.records[0].case, "tree_build");
        assert!(b.wants("tree_walk") && !b.wants("bitvec"));
    }

    #[test]
    fn gates_pass_exactly_at_the_bound_and_fail_just_past_it() {
        for bound in [0.0, 1.0, 1.05, 1e6] {
            assert!(Gate::AtLeast(bound).passes(bound));
            assert!(!Gate::AtLeast(bound).passes(bound - 1e-9));
            assert!(Gate::AtMost(bound).passes(bound));
            assert!(!Gate::AtMost(bound).passes(bound + 1e-9));
        }
        let mut b = quiet_bench("gates");
        b.record(BenchRecord::new("c", "m", "x", 2.0).gate(Gate::AtLeast(2.0)));
        b.record(BenchRecord::new("c", "m", "x", 2.0).gate(Gate::AtMost(1.99)));
        assert!(b.records[0].passes() && !b.records[1].passes());
        let err = b.conclude(&scratch_dir("gates")).unwrap_err();
        assert!(err.contains("FAILED") && err.contains("≤ 1.99"), "{err}");
    }

    #[test]
    fn non_finite_values_fail_finish_but_still_write_the_report() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let dir = scratch_dir("nonfinite");
            let mut b = quiet_bench("nonfinite");
            b.record(BenchRecord::new("c", "m", "x", 1.0).gate(Gate::AtLeast(0.0)));
            assert!(b.conclude(&dir).is_ok());
            let report = dir.join("BENCH_nonfinite.json");
            std::fs::remove_file(&report).unwrap();
            b.record(BenchRecord::new("c", "ungated", "x", value));
            assert!(!b.records[1].passes());
            assert!(b.conclude(&dir).unwrap_err().contains("not finite"));
            assert!(report.is_file());
        }
    }

    #[test]
    fn report_round_trips_with_every_record_tagged() {
        let dir = scratch_dir("roundtrip");
        let mut b = quiet_bench("grp");
        b.bench("x", || 7u64);
        b.record(
            BenchRecord::new("case_a", "speedup", "x", 12.5)
                .param("n", &100_000u64)
                .gate(Gate::AtLeast(10.0)),
        );
        b.record(BenchRecord::new("case_b", "ratio", "x", 0.9).gate(Gate::AtMost(1.05)));
        b.conclude(&dir).unwrap();

        let text = std::fs::read_to_string(dir.join("BENCH_grp.json")).unwrap();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("group").unwrap().as_str().unwrap(), "grp");
        let records = parsed.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), 3);
        for r in records {
            for key in ["case", "metric", "unit"] {
                assert!(r.get(key).unwrap().as_str().is_ok(), "{key} in {r}");
            }
            assert!(r.get("value").unwrap().as_f64().unwrap() > 0.0);
        }
        let gate = records[1].get("gate").unwrap();
        assert_eq!(gate.get("at_least").unwrap().as_f64().unwrap(), 10.0);
        assert!(gate.get("pass").unwrap().as_bool().unwrap());
        assert!(records[2].get("gate").unwrap().get("at_most").is_some());
        let back: Vec<BenchRecord> = records
            .iter()
            .map(|r| BenchRecord::from_json(r).unwrap())
            .collect();
        assert_eq!(back, b.records);
    }

    #[test]
    fn write_report_returns_the_io_error() {
        let dir = scratch_dir("unwritable");
        std::fs::create_dir(dir.join("BENCH_blocked.json")).unwrap();
        let records = [BenchRecord::new("c", "m", "x", 1.0)];
        assert!(write_report(&dir, "blocked", &records).is_err());
        let mut b = quiet_bench("blocked");
        b.record(records[0].clone());
        assert!(b.conclude(&dir).unwrap_err().contains("could not write"));
    }

    #[test]
    fn format_nanos_picks_sane_units() {
        assert_eq!(format_nanos(12.0), "12.0 ns");
        assert_eq!(format_nanos(12_500.0), "12.500 µs");
        assert_eq!(format_nanos(3_200_000.0), "3.200 ms");
        assert_eq!(format_nanos(2.5e9), "2.500 s");
    }
}
