//! Postmortem bundles for non-complete session ends.
//!
//! A chaos- or crash-gate failure used to be a log line; with hundreds of
//! daemon-served reader sessions it has to be a *self-contained repro
//! artifact*. [`postmortem`] builds one from a session that ended
//! `Stalled` or `Degraded` (including the circuit-open and deadline
//! causes); whoever sees the end decides whether to build one (DESIGN.md
//! §14 trigger rules). The bundle carries everything needed to rebuild and
//! re-run the failing cell:
//!
//! * the full [`SimConfig`] and the population as its snapshot names it,
//!   with packed tag states (runs are seed-deterministic, so config +
//!   population reproduce the run from t = 0),
//! * the RNG stream position and sim clock at death,
//! * the last [`LAST_EVENTS`] trace events and how many earlier ones the
//!   tail left out,
//! * the folded span profile,
//! * the partial report the protocol managed to produce.
//!
//! [`FlightBundle::parse`] reads a bundle back, as a client does with one
//! the daemon served; the pinned repro test in `crates/obs/tests/`
//! restores the bundle's config and population and reproduces the
//! failure end-to-end.

use rfid_system::json::{Json, JsonError, ToJson};
use rfid_system::packed::unpack_codes;
use rfid_system::{SimConfig, SimContext, TimedEvent};

use crate::span::folded_stacks;

/// Number of trailing trace events a bundle retains.
pub(crate) const LAST_EVENTS: usize = 64;

/// The postmortem bundle of a run that ended in `cause` (`"stalled"`,
/// `"circuit-open"`, `"out-of-passes"`, `"deadline"`).
///
/// `config` is the [`SimConfig`] the context was built with; the bundle
/// records it with the context's live fault model, so a fault injected
/// mid-run shows in the postmortem. Without an `origin` (a served
/// session's), the bundle lists every tag's ID and payload.
// Every argument is a distinct bundle field; a struct would only rename
// them at each call site.
#[allow(clippy::too_many_arguments)]
pub fn postmortem(
    protocol: &str,
    cause: &str,
    config: &SimConfig,
    ctx: &SimContext,
    origin: Option<Json>,
    report: Json,
    passes: u64,
    coverage: f64,
) -> Json {
    let live_config = SimConfig {
        fault: ctx.fault.clone(),
        ..config.clone()
    };
    let events = ctx.log.events();
    let skip = events.len().saturating_sub(LAST_EVENTS);
    let tail: Vec<Json> = events.iter().skip(skip).map(|e| e.to_json()).collect();
    let spans: Vec<Json> = folded_stacks(&ctx.profiler)
        .into_iter()
        .map(Json::Str)
        .collect();
    let identity = match origin {
        Some(origin) => ("origin", origin),
        None => ("tags", ctx.population.identity_json()),
    };
    Json::Obj(vec![
        ("protocol".to_string(), Json::str(protocol)),
        ("cause".to_string(), Json::str(cause)),
        ("config".to_string(), live_config.to_json()),
        (identity.0.to_string(), identity.1),
        ("tag_count".to_string(), ctx.population.len().to_json()),
        (
            "state".to_string(),
            Json::Str(ctx.population.packed_states()),
        ),
        (
            "rng_state".to_string(),
            Json::Arr(ctx.rng.state().iter().map(|&w| Json::UInt(w)).collect()),
        ),
        ("clock_us".to_string(), ctx.clock.total().to_json()),
        ("passes".to_string(), Json::UInt(passes)),
        ("coverage".to_string(), Json::Float(coverage)),
        ("events".to_string(), Json::Arr(tail)),
        ("events_dropped".to_string(), Json::UInt(skip as u64)),
        ("trace_enabled".to_string(), ctx.log.is_enabled().to_json()),
        ("spans".to_string(), Json::Arr(spans)),
        ("report".to_string(), report),
    ])
}

/// A parsed postmortem bundle: the fields of what [`postmortem`] built
/// that a reader of the bundle uses, typed back. [`FlightBundle::parse`]
/// checks the rest of the document too (`state`, `rng_state`, `clock_us`,
/// `events_dropped`, `report`).
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
    /// Number of tags in the run's population.
    pub tag_count: usize,
    /// The population as its snapshot names it: `("origin", …)` for a
    /// served run, else `("tags", …)` (`TagPopulation::identity_json`).
    pub identity: (String, Json),
    /// Recovery passes the session spent.
    pub passes: u64,
    /// Fraction of tags collected before death.
    pub coverage: f64,
    /// The last `LAST_EVENTS` trace events before death (empty when
    /// tracing was off).
    pub events: Vec<TimedEvent>,
    /// Whether the run recorded a trace at all.
    pub trace_enabled: bool,
    /// Folded span profile (collapsed-flamegraph lines).
    pub spans: Vec<String>,
}

impl FlightBundle {
    /// Parses a bundle document.
    pub fn parse(json: &Json) -> Result<FlightBundle, JsonError> {
        let rng_words: Vec<u64> = json.field("rng_state")?;
        if rng_words.len() != 4 {
            return Err(JsonError(format!(
                "bundle rng_state has {} words, need 4",
                rng_words.len()
            )));
        }
        json.field::<f64>("clock_us")?;
        json.field::<u64>("events_dropped")?;
        json.field::<Json>("report")?;
        let tag_count: usize = json.field("tag_count")?;
        unpack_codes(&json.field::<String>("state")?, tag_count, 2, "state")?;
        let identity = ["origin", "tags"]
            .into_iter()
            .find_map(|key| Some((key.to_string(), json.get(key)?.clone())))
            .ok_or_else(|| JsonError("bundle names no population".to_string()))?;
        Ok(FlightBundle {
            protocol: json.field("protocol")?,
            cause: json.field("cause")?,
            config: json.field("config")?,
            tag_count,
            identity,
            passes: json.field("passes")?,
            coverage: json.field("coverage")?,
            events: json.field("events")?,
            trace_enabled: json.field("trace_enabled")?,
            spans: json.field("spans")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_c1g2::Micros;
    use rfid_system::{BitVec, TagPopulation};

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

    /// Builds `ctx`'s bundle, sends it through its compact text as the
    /// daemon does, and parses it back: the document and its typed view.
    fn round_trip(bundle: Json) -> (Json, FlightBundle) {
        let doc = Json::parse(&bundle.to_string()).expect("bundle text parses");
        let typed = FlightBundle::parse(&doc).expect("bundle parses");
        (doc, typed)
    }

    #[test]
    fn dump_then_load_round_trips_every_field() {
        // Over LAST_EVENTS polls, so the tail is truncated.
        let n = 2 * LAST_EVENTS + 8;
        let config = SimConfig::paper(42).with_trace().with_profile();
        let ctx = stalled_ctx(&config, n);
        let report = Json::Obj(vec![("polls".to_string(), Json::UInt(4))]);
        let (doc, bundle) = round_trip(postmortem(
            "hpp", "stalled", &config, &ctx, None, report, 2, 0.5,
        ));
        assert_eq!(bundle.protocol, "hpp");
        assert_eq!(bundle.cause, "stalled");
        assert_eq!(bundle.config, config);
        assert_eq!(bundle.tag_count, n);
        assert_eq!(bundle.identity.0, "tags");
        let listed = TagPopulation::from_identity_json(&bundle.identity.1).unwrap();
        assert_eq!(listed.len(), n);
        let state = doc.field::<String>("state").unwrap();
        assert_eq!(
            state,
            ctx.population.packed_states(),
            "the bundle packs each tag's state"
        );
        assert_eq!(doc.field::<Vec<u64>>("rng_state").unwrap(), ctx.rng.state());
        assert_eq!(doc.field::<Micros>("clock_us").unwrap(), ctx.clock.total());
        assert_eq!(bundle.passes, 2);
        assert_eq!(bundle.coverage, 0.5);
        assert_eq!(bundle.events.len(), LAST_EVENTS, "tail bounded");
        let last: Vec<TimedEvent> = ctx
            .log
            .events()
            .iter()
            .skip(ctx.log.len() - LAST_EVENTS)
            .copied()
            .collect();
        assert_eq!(bundle.events, last, "the tail is the last events");
        assert_eq!(
            doc.field::<u64>("events_dropped").unwrap(),
            (ctx.log.len() - LAST_EVENTS) as u64,
            "tail truncation is accounted"
        );
        assert!(bundle.trace_enabled);
        assert!(!bundle.spans.is_empty(), "poll spans were folded");
        let report: Json = doc.field("report").unwrap();
        assert_eq!(report.field::<u64>("polls").unwrap(), 4);
    }

    #[test]
    fn dump_without_trace_or_profile_still_produces_a_bundle() {
        let config = SimConfig::paper(7);
        let ctx = stalled_ctx(&config, 4);
        let (_, bundle) = round_trip(postmortem(
            "tpp",
            "circuit-open",
            &config,
            &ctx,
            Some(Json::str("built elsewhere")),
            Json::Null,
            9,
            0.0,
        ));
        assert_eq!(
            bundle.identity,
            ("origin".to_string(), Json::str("built elsewhere"))
        );
        assert!(bundle.events.is_empty());
        assert!(!bundle.trace_enabled);
        assert!(bundle.spans.is_empty());
        assert_eq!(bundle.cause, "circuit-open");
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
