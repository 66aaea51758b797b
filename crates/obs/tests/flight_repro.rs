//! Pinned repro-from-bundle test: the whole point of a postmortem bundle
//! is that a failure seen once can be rebuilt and re-run from the bundle
//! alone. Drive an HPP session into `Degraded` on a jammed downlink, build
//! its postmortem bundle, restore a fresh context from
//! *only* the bundle's config and listed tags, and require the re-run to
//! reproduce the failure — same cause, same coverage, same passes, same
//! partial-report counters.

use rfid_obs::{postmortem, FlightBundle};
use rfid_protocols::{HppConfig, RecoveryPolicy, Session, SessionEnd};
use rfid_system::{BitVec, FaultModel, Json, SimConfig, SimContext, TagPopulation, ToJson};

fn jammed_config(seed: u64) -> SimConfig {
    SimConfig::paper(seed)
        .with_trace()
        .with_profile()
        .with_fault(FaultModel::perfect().with_downlink_loss(1.0))
}

fn population() -> TagPopulation {
    TagPopulation::sequential(40, |i| BitVec::from_value(i as u64, 8))
}

fn degraded_run(cfg: &SimConfig, pop: TagPopulation) -> (SessionEnd, SimContext) {
    let mut ctx = SimContext::new(pop, cfg);
    let protocol = HppConfig { max_rounds: 3 };
    let end = Session::open(&protocol, &ctx)
        .with_policy(RecoveryPolicy::unbounded().with_max_passes(2))
        .run(&mut ctx);
    (end, ctx)
}

/// The bundle of a `Degraded` end, sent through its compact text as the
/// daemon serves it and parsed back.
fn degraded_bundle(cfg: &SimConfig, ctx: &SimContext, end: &SessionEnd) -> FlightBundle {
    let SessionEnd::Degraded { cause, .. } = end else {
        panic!("expected a degraded end, got {end:?}");
    };
    let report = end.report();
    let text = postmortem(
        &report.protocol,
        cause.label(),
        cfg,
        ctx,
        None,
        report.to_json(),
        end.passes(),
        end.coverage(),
    )
    .to_string();
    FlightBundle::parse(&Json::parse(&text).expect("bundle text parses")).expect("bundle parses")
}

#[test]
fn a_degraded_session_is_reproducible_from_its_bundle_alone() {
    // The failing run: jammed downlink, bounded recovery → Degraded.
    let cfg = jammed_config(90210);
    let (end, ctx) = degraded_run(&cfg, population());
    let (first_cause, first_coverage, first_passes, first_report) = match &end {
        SessionEnd::Degraded {
            cause,
            coverage,
            passes,
            report,
        } => (cause.label(), *coverage, *passes, report.clone()),
        other => panic!("jammed run should degrade, got {other:?}"),
    };

    let bundle = degraded_bundle(&cfg, &ctx, &end);
    assert_eq!(bundle.protocol, "HPP");
    assert_eq!(bundle.cause, first_cause);
    assert_eq!(bundle.coverage, first_coverage);
    assert_eq!(bundle.passes, first_passes);
    assert_eq!(bundle.config, cfg, "bundle pins the full failing config");
    assert!(
        bundle.trace_enabled && !bundle.events.is_empty(),
        "traced run left an event tail"
    );
    assert!(
        bundle.spans.iter().any(|l| l.starts_with("session;pass")),
        "the profiled run folded its pass spans"
    );

    // Repro: rebuild the run from the bundle's config and listed tags
    // alone (runs are seed-deterministic, so config + population
    // reproduce t = 0 onward) and require the identical failure.
    assert_eq!(bundle.identity.0, "tags");
    let pop = TagPopulation::from_identity_json(&bundle.identity.1).expect("the tags rebuild");
    assert_eq!(pop, population(), "bundle pins the failing population");
    let (again, _) = degraded_run(&bundle.config, pop);
    match again {
        SessionEnd::Degraded {
            cause,
            coverage,
            passes,
            report,
        } => {
            assert_eq!(cause.label(), first_cause);
            assert_eq!(coverage, first_coverage);
            assert_eq!(passes, first_passes);
            assert_eq!(report.counters, first_report.counters);
            assert_eq!(report.total_time, first_report.total_time);
        }
        other => panic!("repro run did not degrade: {other:?}"),
    }
}

#[test]
fn a_circuit_open_end_dumps_a_bundle_with_that_cause() {
    // Unbounded passes on a dead channel: the pass budget never runs out,
    // so the zero-progress circuit breaker is what stops the session.
    let cfg = jammed_config(777);
    let mut ctx = SimContext::new(population(), &cfg);
    let protocol = HppConfig { max_rounds: 3 };
    let end = Session::open(&protocol, &ctx)
        .with_policy(RecoveryPolicy::unbounded())
        .run(&mut ctx);
    let bundle = degraded_bundle(&cfg, &ctx, &end);
    assert_eq!(bundle.cause, "circuit-open");
    assert_eq!(bundle.coverage, 0.0);
    assert!(bundle.passes > 1, "the breaker needs several idle passes");
}
