//! The metrics registry: named histograms, counters and time series.
//!
//! A [`MetricsRegistry`] is the in-memory snapshot format the `obs_report`
//! binary renders and JSON consumers export. Like the event log it has a
//! disabled mode whose record paths return before touching any storage —
//! Monte-Carlo sweeps keep a registry around unconditionally and pay
//! nothing (`benches/obs.rs` guards this).
//!
//! Metric names are interned per registry in insertion order, so snapshots
//! are deterministic and diffs between runs stay line-stable. Lookup is a
//! linear scan: a run registers on the order of ten metrics, where a scan
//! beats hashing and keeps the crate dependency-free.

use rfid_c1g2::Micros;
use rfid_system::json::{Json, ToJson};

use crate::histogram::Log2Histogram;

/// Canonical names of the wire/fleet resilience counters, so the
/// resilient client, the daemon supervisor and the chaos-soak bench all
/// agree on one vocabulary. Each is
/// an ordinary [`MetricsRegistry`] counter (incremented with
/// [`MetricsRegistry::inc`], rendered by
/// [`MetricsRegistry::expose_text`] with the `rfid_` prefix) and is
/// reconciled by the resilience gate's conservation law.
pub mod wire_counters {
    /// Client verb exchanges retried after a transport/timeout failure.
    pub const WIRE_RETRIES: &str = "wire_retries";
    /// Client re-dials after a poisoned or severed connection.
    pub const WIRE_RECONNECTS: &str = "wire_reconnects";
    /// Commands shed with a `Busy` response at an admission/in-flight
    /// budget.
    pub const SESSIONS_SHED: &str = "sessions_shed";
    /// Orphaned sessions the supervisor restored from their last
    /// checkpoint and ran to completion.
    pub const SESSIONS_RESURRECTED: &str = "sessions_resurrected";
    /// Final checkpoints deposited while draining live sessions at
    /// shutdown.
    pub const DRAIN_CHECKPOINTS: &str = "drain_checkpoints";

    /// Every wire-resilience counter name, in exposition order.
    pub const ALL: &[&str] = &[
        WIRE_RETRIES,
        WIRE_RECONNECTS,
        SESSIONS_SHED,
        SESSIONS_RESURRECTED,
        DRAIN_CHECKPOINTS,
    ];
}

/// One `(sim-time, value)` sample of a time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Simulation time of the sample, in microseconds.
    pub t_us: f64,
    /// Sampled value.
    pub value: f64,
}

rfid_system::impl_json_struct!(SeriesPoint { t_us, value });

/// An append-only time series of [`SeriesPoint`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// The samples, in recording order (sim-time monotone for trace-derived
    /// series).
    pub points: Vec<SeriesPoint>,
}

rfid_system::impl_json_struct!(TimeSeries { points });

impl TimeSeries {
    /// Last recorded value, if any.
    pub fn last(&self) -> Option<SeriesPoint> {
        self.points.last().copied()
    }
}

/// A named collection of histograms, monotone counters and time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    enabled: bool,
    histograms: Vec<(String, Log2Histogram)>,
    counters: Vec<(String, u64)>,
    series: Vec<(String, TimeSeries)>,
}

impl MetricsRegistry {
    /// A recording registry.
    pub fn enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// A disabled registry: every record path is a no-op.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one sample into the named histogram (created on first use).
    #[inline]
    pub fn observe(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
            h.record(value);
            return;
        }
        let mut h = Log2Histogram::new();
        h.record(value);
        self.histograms.push((name.to_string(), h));
    }

    /// Adds `by` to the named counter (created on first use).
    #[inline]
    pub fn inc(&mut self, name: &str, by: u64) {
        if !self.enabled {
            return;
        }
        if let Some((_, c)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *c += by;
            return;
        }
        self.counters.push((name.to_string(), by));
    }

    /// Appends a `(t, value)` sample to the named series (created on first
    /// use).
    #[inline]
    pub fn point(&mut self, name: &str, t: Micros, value: f64) {
        if !self.enabled {
            return;
        }
        let p = SeriesPoint {
            t_us: t.as_f64(),
            value,
        };
        if let Some((_, s)) = self.series.iter_mut().find(|(n, _)| n == name) {
            s.points.push(p);
            return;
        }
        self.series
            .push((name.to_string(), TimeSeries { points: vec![p] }));
    }

    /// Folds another registry into this one: histograms merge exactly
    /// (bucket-count sums), counters add, and time series concatenate
    /// (`self`'s points first). Metrics new to `self` are appended in
    /// `other`'s insertion order.
    ///
    /// Histogram and counter merging is associative and commutative, so the
    /// sweep engine can give each worker thread a private registry and fold
    /// them post-join without locking: the merged totals are independent of
    /// how jobs were scheduled. A disabled `self` stays empty.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        if !self.enabled {
            return;
        }
        for (name, h) in &other.histograms {
            if let Some((_, mine)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
                mine.merge(h);
            } else {
                self.histograms.push((name.clone(), h.clone()));
            }
        }
        for (name, c) in &other.counters {
            self.inc(name, *c);
        }
        for (name, s) in &other.series {
            if let Some((_, mine)) = self.series.iter_mut().find(|(n, _)| n == name) {
                mine.points.extend_from_slice(&s.points);
            } else {
                self.series.push((name.clone(), s.clone()));
            }
        }
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The named counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    }

    /// The named time series, if recorded.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Names of the recorded histograms, in insertion order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.iter().map(|(n, _)| n.as_str())
    }

    /// Renders the registry in the Prometheus text exposition format — the
    /// surface a metrics daemon serves verbatim (DESIGN.md §14 gives the
    /// grammar). Per metric, in registry insertion order:
    ///
    /// * counters: `# TYPE rfid_<name> counter` + `rfid_<name> <value>`,
    /// * histograms: cumulative `rfid_<name>_bucket{le="<high>"}` lines
    ///   (one per log2 bucket up to the highest non-empty one, then
    ///   `+Inf`), plus `_sum` and `_count`,
    /// * time series: a gauge holding the last sampled value.
    ///
    /// Names are sanitized (`[^a-zA-Z0-9_]` → `_`) and prefixed `rfid_`.
    pub fn expose_text(&self) -> String {
        let mut out = String::new();
        for (name, c) in &self.counters {
            let n = metric_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {c}\n"));
        }
        for (name, h) in &self.histograms {
            let n = metric_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (_, high, count) in h.nonzero_buckets() {
                cumulative += count;
                out.push_str(&format!("{n}_bucket{{le=\"{high}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{n}_sum {}\n", h.sum()));
            out.push_str(&format!("{n}_count {}\n", h.count()));
        }
        for (name, s) in &self.series {
            let n = metric_name(name);
            let last = s.last().map_or(0.0, |p| p.value);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {last}\n"));
        }
        out
    }

    /// A self-contained JSON snapshot: `{counters: {...}, histograms:
    /// {...}, series: {...}}`.
    pub fn snapshot(&self) -> Json {
        let obj = |entries: Vec<(String, Json)>| Json::Obj(entries);
        Json::Obj(vec![
            (
                "counters".to_string(),
                obj(self
                    .counters
                    .iter()
                    .map(|(n, c)| (n.clone(), c.to_json()))
                    .collect()),
            ),
            (
                "histograms".to_string(),
                obj(self
                    .histograms
                    .iter()
                    .map(|(n, h)| (n.clone(), h.to_json()))
                    .collect()),
            ),
            (
                "series".to_string(),
                obj(self
                    .series
                    .iter()
                    .map(|(n, s)| (n.clone(), s.to_json()))
                    .collect()),
            ),
        ])
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        self.snapshot()
    }
}

/// [`MetricsRegistry::expose_text`] as a free function, for the prelude.
pub fn expose_text(registry: &MetricsRegistry) -> String {
    registry.expose_text()
}

/// A Prometheus-safe metric name: sanitized and `rfid_`-prefixed.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("rfid_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Incremental snapshot cursor for delta-JSONL streaming.
///
/// A daemon polls a live registry periodically; shipping the full snapshot
/// every tick is O(total history) for time series. A [`DeltaCursor`]
/// remembers what it has already emitted and [`DeltaCursor::delta`] returns
/// one JSONL line holding only what changed since the previous call —
/// counter values that moved, `{count, sum}` for histograms that absorbed
/// samples, and the *new* series points — or `None` when nothing changed.
///
/// Replaying a stream of delta lines in order reconstructs the counters and
/// series exactly (histograms stream summaries, not buckets; consumers that
/// need full bucket shapes take a final [`MetricsRegistry::snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct DeltaCursor {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, (u64, u64))>,
    series_seen: Vec<(String, usize)>,
}

impl DeltaCursor {
    /// A cursor that has seen nothing (the first delta is a full snapshot).
    pub fn new() -> Self {
        DeltaCursor::default()
    }

    fn remembered<T: Copy>(seen: &[(String, T)], name: &str) -> Option<T> {
        seen.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn remember<T: Copy>(seen: &mut Vec<(String, T)>, name: &str, value: T) {
        if let Some((_, v)) = seen.iter_mut().find(|(n, _)| n == name) {
            *v = value;
        } else {
            seen.push((name.to_string(), value));
        }
    }

    /// One JSONL line of changes since the previous call, or `None` if the
    /// registry is unchanged. Fields present only when non-empty:
    /// `{"counters": {...}, "histograms": {name: {count, sum}},
    /// "series": {name: [points…]}}`.
    pub fn delta(&mut self, m: &MetricsRegistry) -> Option<String> {
        let mut counters = Vec::new();
        for (name, &value) in m.counters.iter().map(|(n, c)| (n, c)) {
            if Self::remembered(&self.counters, name) != Some(value) {
                counters.push((name.clone(), Json::UInt(value)));
                Self::remember(&mut self.counters, name, value);
            }
        }
        let mut histograms = Vec::new();
        for (name, h) in &m.histograms {
            let now = (h.count(), h.sum());
            if Self::remembered(&self.histograms, name) != Some(now) {
                histograms.push((
                    name.clone(),
                    Json::Obj(vec![
                        ("count".to_string(), Json::UInt(now.0)),
                        ("sum".to_string(), Json::UInt(now.1)),
                    ]),
                ));
                Self::remember(&mut self.histograms, name, now);
            }
        }
        let mut series = Vec::new();
        for (name, s) in &m.series {
            let seen = Self::remembered(&self.series_seen, name).unwrap_or(0);
            if s.points.len() > seen {
                series.push((
                    name.clone(),
                    Json::Arr(s.points[seen..].iter().map(|p| p.to_json()).collect()),
                ));
                Self::remember(&mut self.series_seen, name, s.points.len());
            }
        }
        if counters.is_empty() && histograms.is_empty() && series.is_empty() {
            return None;
        }
        let mut fields = Vec::new();
        if !counters.is_empty() {
            fields.push(("counters".to_string(), Json::Obj(counters)));
        }
        if !histograms.is_empty() {
            fields.push(("histograms".to_string(), Json::Obj(histograms)));
        }
        if !series.is_empty() {
            fields.push(("series".to_string(), Json::Obj(series)));
        }
        Some(Json::Obj(fields).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counters_expose_with_prefix() {
        let mut m = MetricsRegistry::enabled();
        for name in wire_counters::ALL {
            m.inc(name, 1);
        }
        let text = m.expose_text();
        for name in wire_counters::ALL {
            assert!(
                text.contains(&format!("# TYPE rfid_{name} counter")),
                "{name} missing from exposition:\n{text}"
            );
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::disabled();
        m.observe("w", 3);
        m.inc("polls", 1);
        m.point("unread", Micros::from_us(1.0), 10.0);
        assert!(!m.is_enabled());
        assert!(m.histogram("w").is_none());
        assert_eq!(m.counter("polls"), 0);
        assert!(m.series("unread").is_none());
    }

    #[test]
    fn enabled_registry_accumulates_by_name() {
        let mut m = MetricsRegistry::enabled();
        m.observe("w", 3);
        m.observe("w", 5);
        m.observe("latency", 100);
        m.inc("polls", 1);
        m.inc("polls", 2);
        m.point("unread", Micros::from_us(0.0), 10.0);
        m.point("unread", Micros::from_us(5.0), 7.0);
        assert_eq!(m.histogram("w").unwrap().count(), 2);
        assert_eq!(m.histogram("w").unwrap().mean(), 4.0);
        assert_eq!(m.counter("polls"), 3);
        let s = m.series("unread").unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.last().unwrap().value, 7.0);
        let names: Vec<&str> = m.histogram_names().collect();
        assert_eq!(names, ["w", "latency"], "insertion order preserved");
    }

    #[test]
    fn merge_folds_histograms_counters_and_series() {
        let mut a = MetricsRegistry::enabled();
        a.observe("w", 2);
        a.inc("polls", 1);
        a.point("unread", Micros::from_us(0.0), 3.0);
        let mut b = MetricsRegistry::enabled();
        b.observe("w", 6);
        b.observe("latency", 50);
        b.inc("polls", 4);
        b.inc("rounds", 2);
        b.point("unread", Micros::from_us(1.0), 1.0);

        a.merge(&b);
        assert_eq!(a.histogram("w").unwrap().count(), 2);
        assert_eq!(a.histogram("w").unwrap().mean(), 4.0);
        assert_eq!(a.histogram("latency").unwrap().count(), 1);
        assert_eq!(a.counter("polls"), 5);
        assert_eq!(a.counter("rounds"), 2);
        assert_eq!(a.series("unread").unwrap().points.len(), 2);
    }

    #[test]
    fn merge_totals_are_schedule_independent() {
        // Three per-worker registries folded in any order agree on every
        // histogram and counter (the guarantee the sweep engine leans on).
        let parts: Vec<MetricsRegistry> = (0..3u64)
            .map(|w| {
                let mut m = MetricsRegistry::enabled();
                m.observe("job_us", 10 + w);
                m.inc("jobs", w + 1);
                m
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = MetricsRegistry::enabled();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let a = fold(&[0, 1, 2]);
        let b = fold(&[2, 0, 1]);
        assert_eq!(a.counter("jobs"), b.counter("jobs"));
        assert_eq!(a.histogram("job_us"), b.histogram("job_us"));
    }

    #[test]
    fn merge_into_disabled_registry_is_a_no_op() {
        let mut a = MetricsRegistry::disabled();
        let mut b = MetricsRegistry::enabled();
        b.inc("jobs", 3);
        a.merge(&b);
        assert_eq!(a.counter("jobs"), 0);
    }

    #[test]
    fn expose_text_renders_prometheus_format() {
        let mut m = MetricsRegistry::enabled();
        m.inc("polls", 42);
        m.observe("vector-bits", 0);
        m.observe("vector-bits", 3);
        m.observe("vector-bits", 3);
        m.point("unread", Micros::from_us(0.0), 10.0);
        m.point("unread", Micros::from_us(5.0), 7.0);
        let text = m.expose_text();
        assert!(text.contains("# TYPE rfid_polls counter\nrfid_polls 42\n"));
        // Dashes sanitize to underscores; buckets are cumulative.
        assert!(text.contains("# TYPE rfid_vector_bits histogram\n"));
        assert!(text.contains("rfid_vector_bits_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("rfid_vector_bits_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("rfid_vector_bits_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("rfid_vector_bits_sum 6\n"));
        assert!(text.contains("rfid_vector_bits_count 3\n"));
        // Series expose their latest value as a gauge.
        assert!(text.contains("# TYPE rfid_unread gauge\nrfid_unread 7\n"));
        assert_eq!(m.expose_text(), expose_text(&m), "free fn agrees");
    }

    #[test]
    fn expose_text_of_empty_registry_is_empty() {
        assert_eq!(MetricsRegistry::enabled().expose_text(), "");
        assert_eq!(MetricsRegistry::disabled().expose_text(), "");
    }

    #[test]
    fn delta_cursor_streams_only_changes() {
        let mut m = MetricsRegistry::enabled();
        let mut cur = DeltaCursor::new();
        assert_eq!(cur.delta(&m), None, "nothing recorded, nothing streamed");

        m.inc("polls", 2);
        m.observe("w", 5);
        m.point("unread", Micros::from_us(0.0), 9.0);
        let first = cur.delta(&m).expect("first delta is the full state");
        let json: Json = rfid_system::json::from_json_str(&first).unwrap();
        let counters = json.field::<Json>("counters").unwrap();
        assert_eq!(counters.field::<u64>("polls").unwrap(), 2);
        let hists = json.field::<Json>("histograms").unwrap();
        let w = hists.field::<Json>("w").unwrap();
        assert_eq!(w.field::<u64>("count").unwrap(), 1);
        assert_eq!(w.field::<u64>("sum").unwrap(), 5);

        assert_eq!(cur.delta(&m), None, "unchanged registry streams nothing");

        m.inc("polls", 1);
        m.point("unread", Micros::from_us(3.0), 8.0);
        let second = cur.delta(&m).expect("changes stream");
        let json: Json = rfid_system::json::from_json_str(&second).unwrap();
        let counters = json.field::<Json>("counters").unwrap();
        assert_eq!(counters.field::<u64>("polls").unwrap(), 3);
        assert!(
            json.field::<Json>("histograms").is_err(),
            "untouched histogram omitted from the delta"
        );
        let series = json.field::<Json>("series").unwrap();
        let pts = series.field::<Vec<SeriesPoint>>("unread").unwrap();
        assert_eq!(pts.len(), 1, "only the new point streams");
        assert_eq!(pts[0].value, 8.0);
    }

    #[test]
    fn delta_lines_are_single_line_jsonl() {
        let mut m = MetricsRegistry::enabled();
        m.inc("a", 1);
        m.observe("b", 2);
        let line = DeltaCursor::new().delta(&m).unwrap();
        assert!(!line.contains('\n'));
    }

    #[test]
    fn snapshot_is_valid_json() {
        let mut m = MetricsRegistry::enabled();
        m.observe("w", 3);
        m.inc("polls", 1);
        m.point("unread", Micros::from_us(2.5), 9.0);
        let text = m.snapshot().to_string();
        let parsed: Json = rfid_system::json::from_json_str(&text).unwrap();
        let counters = parsed.field::<Json>("counters").unwrap();
        assert_eq!(counters.field::<u64>("polls").unwrap(), 1);
    }
}
