//! The flight recorder: postmortem bundles for non-complete session ends.
//!
//! A chaos- or crash-gate failure used to be a log line; with hundreds of
//! daemon-served reader sessions on the roadmap it has to be a
//! *self-contained repro artifact*. A [`FlightRecorder`] attached to a
//! session engine dumps a [`FlightBundle`] JSON file whenever a run ends in
//! `Stalled` or `Degraded` (including the circuit-open and deadline
//! causes) — never on `Complete` (DESIGN.md §14 trigger rules). The bundle
//! carries everything needed to rebuild and re-run the failing cell:
//!
//! * the full [`SimConfig`] and tag population (runs are seed-
//!   deterministic, so config + population reproduce the run from t = 0),
//! * the RNG stream position and sim clock at death,
//! * the last-N trace events (bounded — ring traces stay bounded too) and
//!   the drop count,
//! * the open-span stack (where the run died) and the folded span profile,
//! * the partial report the protocol managed to produce.
//!
//! [`FlightBundle::parse`] reads a bundle back; the pinned repro test in
//! `crates/obs/tests/` restores the bundle's config and population and
//! reproduces the failure end-to-end.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rfid_system::json::{from_json_str, Json, JsonError, ToJson};
use rfid_system::{SimConfig, SimContext, TagPopulation, TimedEvent};

use crate::span::folded_stacks;

/// Default number of trailing trace events a bundle retains.
pub const DEFAULT_LAST_EVENTS: usize = 64;

/// A postmortem dumper: directory to write bundles into plus the event-tail
/// bound.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    dir: PathBuf,
    last_events: usize,
}

/// Keeps only filename-safe characters so protocol and cause labels cannot
/// escape the bundle directory.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

impl FlightRecorder {
    /// A recorder writing bundles into `dir` (created on first dump),
    /// keeping the default [`DEFAULT_LAST_EVENTS`] event tail.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightRecorder {
            dir: dir.into(),
            last_events: DEFAULT_LAST_EVENTS,
        }
    }

    /// Replaces the event-tail bound.
    pub fn with_last_events(mut self, n: usize) -> Self {
        self.last_events = n;
        self
    }

    /// The directory bundles are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a postmortem bundle for a run that ended in `cause`
    /// (`"stalled"`, `"circuit-open"`, `"out-of-passes"`, `"deadline"`).
    /// Returns the bundle path: `postmortem-<protocol>-<cause>-<seed>.json`.
    ///
    /// `config` is the [`SimConfig`] the context was built with; the
    /// bundle records it with the context's live fault model, so a fault
    /// injected mid-run shows in the postmortem.
    // Every argument is a distinct bundle field; a struct would only
    // rename them at the single call site.
    #[allow(clippy::too_many_arguments)]
    pub fn dump(
        &self,
        protocol: &str,
        cause: &str,
        config: &SimConfig,
        ctx: &SimContext,
        report: Json,
        passes: u64,
        coverage: f64,
    ) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let live_config = SimConfig {
            fault: ctx.fault.clone(),
            ..config.clone()
        };
        let events = ctx.log.events();
        let skip = events.len().saturating_sub(self.last_events);
        let tail: Vec<Json> = events.iter().skip(skip).map(|e| e.to_json()).collect();
        let open: Vec<Json> = ctx
            .profiler
            .open_stack()
            .iter()
            .map(|s| Json::Str(s.to_string()))
            .collect();
        let spans: Vec<Json> = folded_stacks(&ctx.profiler)
            .into_iter()
            .map(Json::Str)
            .collect();
        let bundle = Json::Obj(vec![
            ("protocol".to_string(), Json::Str(protocol.to_string())),
            ("cause".to_string(), Json::Str(cause.to_string())),
            ("config".to_string(), live_config.to_json()),
            ("population".to_string(), ctx.population.to_json()),
            (
                "rng_state".to_string(),
                Json::Arr(ctx.rng.state().iter().map(|&w| Json::UInt(w)).collect()),
            ),
            ("clock_us".to_string(), ctx.clock.total().to_json()),
            ("passes".to_string(), Json::UInt(passes)),
            ("coverage".to_string(), Json::Float(coverage)),
            ("events".to_string(), Json::Arr(tail)),
            (
                "events_dropped".to_string(),
                Json::UInt(ctx.log.dropped() + skip as u64),
            ),
            ("trace_enabled".to_string(), ctx.log.is_enabled().to_json()),
            ("open_spans".to_string(), Json::Arr(open)),
            ("spans".to_string(), Json::Arr(spans)),
            ("report".to_string(), report),
        ]);
        let name = format!(
            "postmortem-{}-{}-{}.json",
            sanitize(protocol),
            sanitize(cause),
            config.seed
        );
        let path = self.dir.join(name);
        fs::write(&path, bundle.to_string())?;
        Ok(path)
    }
}

/// A parsed postmortem bundle — everything [`FlightRecorder::dump`] wrote,
/// typed back.
#[derive(Debug, Clone)]
pub struct FlightBundle {
    /// Protocol label of the failed run.
    pub protocol: String,
    /// Why the run ended: `"stalled"`, `"circuit-open"`, `"out-of-passes"`
    /// or `"deadline"`.
    pub cause: String,
    /// The run's full configuration (seed included — re-running
    /// reproduces the failure deterministically).
    pub config: SimConfig,
    /// The tag population at death (read/deselect state included).
    pub population: TagPopulation,
    /// RNG stream position at death.
    pub rng_state: [u64; 4],
    /// Sim clock at death, microseconds.
    pub clock_us: f64,
    /// Recovery passes the session spent.
    pub passes: u64,
    /// Fraction of tags collected before death.
    pub coverage: f64,
    /// The last-N trace events before death (empty when tracing was off).
    pub events: Vec<TimedEvent>,
    /// Events not in the tail: ring-evicted plus tail-truncated.
    pub events_dropped: u64,
    /// Whether the run recorded a trace at all.
    pub trace_enabled: bool,
    /// Span stack open at death, outermost first (where the run died).
    pub open_spans: Vec<String>,
    /// Folded span profile (collapsed-flamegraph lines).
    pub spans: Vec<String>,
    /// The partial report the protocol produced, verbatim.
    pub report: Json,
}

impl FlightBundle {
    /// Parses a bundle document.
    pub fn parse(json: &Json) -> Result<FlightBundle, JsonError> {
        let rng_words: Vec<u64> = json.field("rng_state")?;
        let rng_state: [u64; 4] = rng_words.as_slice().try_into().map_err(|_| {
            JsonError(format!(
                "bundle rng_state has {} words, need 4",
                rng_words.len()
            ))
        })?;
        Ok(FlightBundle {
            protocol: json.field("protocol")?,
            cause: json.field("cause")?,
            config: json.field("config")?,
            population: json.field("population")?,
            rng_state,
            clock_us: json.field("clock_us")?,
            passes: json.field("passes")?,
            coverage: json.field("coverage")?,
            events: json.field("events")?,
            events_dropped: json.field("events_dropped")?,
            trace_enabled: json.field("trace_enabled")?,
            open_spans: json.field("open_spans")?,
            spans: json.field("spans")?,
            report: json.field("report")?,
        })
    }

    /// Reads and parses a bundle file.
    pub fn load(path: impl AsRef<Path>) -> Result<FlightBundle, JsonError> {
        let text = fs::read_to_string(path.as_ref())
            .map_err(|e| JsonError(format!("cannot read bundle: {e}")))?;
        let json = from_json_str::<Json>(&text)?;
        FlightBundle::parse(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::BitVec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfid-flight-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn stalled_ctx(config: &SimConfig, n: usize) -> SimContext {
        let pop = TagPopulation::sequential(n, |i| BitVec::from_value(i as u64, 8));
        let mut ctx = SimContext::new(pop, config);
        ctx.span_enter("session");
        ctx.span_enter("pass");
        for t in 0..n / 2 {
            ctx.poll_tag(6, true, t);
        }
        ctx
    }

    #[test]
    fn dump_then_load_round_trips_every_field() {
        let dir = tmp_dir("roundtrip");
        let config = SimConfig::paper(42).with_trace().with_profile();
        let ctx = stalled_ctx(&config, 8);
        let rec = FlightRecorder::new(&dir).with_last_events(3);
        let report = Json::Obj(vec![("polls".to_string(), Json::UInt(4))]);
        let path = rec
            .dump("hpp", "stalled", &config, &ctx, report, 2, 0.5)
            .expect("dump writes");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "postmortem-hpp-stalled-42.json"
        );

        let bundle = FlightBundle::load(&path).expect("bundle parses");
        assert_eq!(bundle.protocol, "hpp");
        assert_eq!(bundle.cause, "stalled");
        assert_eq!(bundle.config, config);
        assert_eq!(bundle.population.len(), 8);
        assert_eq!(bundle.rng_state, ctx.rng.state());
        assert_eq!(bundle.passes, 2);
        assert_eq!(bundle.coverage, 0.5);
        assert_eq!(bundle.events.len(), 3, "tail bounded to last_events");
        assert_eq!(
            bundle.events_dropped,
            ctx.log.events().len() as u64 - 3,
            "tail truncation is accounted"
        );
        assert!(bundle.trace_enabled);
        assert_eq!(bundle.open_spans, ["session", "pass"]);
        assert!(!bundle.spans.is_empty(), "poll spans were folded");
        assert_eq!(bundle.report.field::<u64>("polls").unwrap(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_without_trace_or_profile_still_produces_a_bundle() {
        let dir = tmp_dir("bare");
        let config = SimConfig::paper(7);
        let ctx = stalled_ctx(&config, 4);
        let rec = FlightRecorder::new(&dir);
        let path = rec
            .dump("tpp", "circuit-open", &config, &ctx, Json::Null, 9, 0.0)
            .expect("dump writes");
        let bundle = FlightBundle::load(&path).expect("bundle parses");
        assert!(bundle.events.is_empty());
        assert!(!bundle.trace_enabled);
        assert!(bundle.open_spans.is_empty());
        assert!(bundle.spans.is_empty());
        assert_eq!(bundle.cause, "circuit-open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn filenames_are_sanitized() {
        assert_eq!(sanitize("HPP/..%weird"), "hpp----weird");
    }

    #[test]
    fn parse_rejects_malformed_bundles() {
        assert!(FlightBundle::parse(&Json::Obj(vec![])).is_err());
        let bad = Json::Obj(vec![(
            "rng_state".to_string(),
            Json::Arr(vec![Json::UInt(1); 3]),
        )]);
        assert!(FlightBundle::parse(&bad).is_err());
    }
}
