//! The metrics registry: named histograms, counters and time series.
//!
//! A [`MetricsRegistry`] is the in-memory snapshot format the `obs_report`
//! binary renders and JSON consumers export.
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

/// A named collection of histograms, monotone counters and time series;
/// [`Default`] is the empty registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    histograms: Vec<(String, Log2Histogram)>,
    counters: Vec<(String, u64)>,
    series: Vec<(String, TimeSeries)>,
}

impl MetricsRegistry {
    /// Records one sample into the named histogram (created on first use).
    #[inline]
    pub fn observe(&mut self, name: &str, value: u64) {
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
        if let Some((_, c)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *c += by;
            return;
        }
        self.counters.push((name.to_string(), by));
    }

    /// Appends a `(t, value)` sample to the named series (created on first
    /// use).
    #[inline]
    pub(crate) fn point(&mut self, name: &str, t: Micros, value: f64) {
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
}

/// A self-contained JSON snapshot: `{counters: {...}, histograms: {...},
/// series: {...}}`.
impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counters_expose_with_prefix() {
        use wire_counters::*;
        let all = [
            WIRE_RETRIES,
            WIRE_RECONNECTS,
            SESSIONS_SHED,
            SESSIONS_RESURRECTED,
            DRAIN_CHECKPOINTS,
        ];
        let mut m = MetricsRegistry::default();
        for name in all {
            m.inc(name, 1);
        }
        let text = m.expose_text();
        for name in all {
            assert!(
                text.contains(&format!("# TYPE rfid_{name} counter")),
                "{name} missing from exposition:\n{text}"
            );
        }
    }

    #[test]
    fn enabled_registry_accumulates_by_name() {
        let mut m = MetricsRegistry::default();
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
        let names: Vec<&str> = m.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["w", "latency"], "insertion order preserved");
    }

    #[test]
    fn expose_text_renders_prometheus_format() {
        let mut m = MetricsRegistry::default();
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
    }

    #[test]
    fn expose_text_of_empty_registry_is_empty() {
        assert_eq!(MetricsRegistry::default().expose_text(), "");
    }

    #[test]
    fn snapshot_is_valid_json() {
        let mut m = MetricsRegistry::default();
        m.observe("w", 3);
        m.inc("polls", 1);
        m.point("unread", Micros::from_us(2.5), 9.0);
        let text = m.to_json().to_string();
        let parsed: Json = rfid_system::json::from_json_str(&text).unwrap();
        let counters = parsed.field::<Json>("counters").unwrap();
        assert_eq!(counters.field::<u64>("polls").unwrap(), 1);
    }
}
