//! Observability for protocol runs (the telemetry layer of DESIGN.md §9).
//!
//! The simulator's ground truth is twofold: end-of-run
//! [`rfid_system::Counters`] (what every figure and table is built from)
//! and the sim-time-stamped event trace ([`rfid_system::EventLog`]). This
//! crate turns traces into *metrics*:
//!
//! * [`histogram::Log2Histogram`] — allocation-light log-scaled histograms
//!   for long-tailed quantities (vector lengths, latencies, slot times),
//! * [`metrics::MetricsRegistry`] — a named registry of histograms,
//!   counters and time series,
//! * [`trace::metrics_from_log`] — derives the paper-relevant metric set
//!   (vector-length distribution, per-tag poll latency, slot durations,
//!   unread-tags-vs-time, retransmission depth) from any trace.
//!
//! Replaying a trace into `Counters` is
//! [`rfid_system::Counters::from_events`], the fold of the same
//! `Counters::apply` the simulator runs live; the golden tests assert that
//! every traced run folds back into its counters.
//!
//! The profiling plane (DESIGN.md §14):
//!
//! * `span` — the analysis half of hierarchical span profiling:
//!   deterministic folded-stack (collapsed flamegraph) export and the
//!   `obs_report --flame` renderer (recording lives on
//!   [`rfid_system::SpanProfiler`]),
//! * `flight` — postmortem bundles: [`flight::postmortem`] builds the
//!   JSON document for a session that ended `Stalled`/`Degraded`, and
//!   [`flight::FlightBundle`] parses it back into a repro artifact,
//! * [`metrics::MetricsRegistry::expose_text`] — Prometheus-style text
//!   exposition.

pub(crate) mod flight;
pub(crate) mod histogram;
pub(crate) mod metrics;
pub(crate) mod span;
pub(crate) mod trace;

pub use flight::{postmortem, FlightBundle};
pub use histogram::Log2Histogram;
pub use metrics::{wire_counters, MetricsRegistry};
pub use span::{folded_stacks, render_flame};
pub use trace::metrics_from_log;
