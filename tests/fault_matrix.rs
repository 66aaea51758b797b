//! Combined-impairment matrix: every protocol, under every mix of downlink
//! loss, payload corruption, and burst loss, either collects all tags
//! exactly once or returns a consistent `PollingError::Stalled` — it never
//! panics and never double-collects (a double `mark_read` would panic
//! inside the population, so a green run proves exactly-once). Every
//! traced run's events must fold back into its counters.

mod support;

use fast_rfid_polling::apps::info_collect::collect;
use fast_rfid_polling::apps::unknown::run_hpp_with_aliens;
use fast_rfid_polling::baselines::MicConfig;
use fast_rfid_polling::daemon::all_protocols;
use fast_rfid_polling::hash::prop;
use fast_rfid_polling::identify::QueryTreeConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{
    Channel, Counters, EventLog, FaultPlan, KillRule, SimConfig, SimContext, ToJson,
};

const N: usize = 150;

fn protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(MicConfig::default()),
    ]
}

fn ctx_with(fault: FaultModel, seed: u64) -> SimContext {
    let scenario = Scenario::uniform(N, 4).with_seed(seed);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault);
    SimContext::new(scenario.build_population(), &cfg)
}

#[test]
fn every_protocol_completes_or_stalls_cleanly_across_the_matrix() {
    let bursts = [
        None,
        Some(GilbertElliott::new(0.1, 0.5, 0.0, 0.8)), // ~1/6 of attempts in the bad state
    ];
    // Summed over the matrix, every fault path must have fired.
    let mut totals = Counters::default();
    for protocol in &protocols() {
        for seed in [1, 2, 3, 99] {
            for downlink in [0.0f64, 0.15, 0.3] {
                for corruption in [0.0f64, 0.3] {
                    for burst in bursts {
                        let mut fault = FaultModel::perfect()
                            .with_downlink_loss(downlink)
                            .with_corruption(corruption);
                        if let Some(ge) = burst {
                            fault = fault.with_burst(ge);
                        }
                        let label = format!(
                            "{} seed={seed} dl={downlink} corr={corruption} burst={}",
                            protocol.name(),
                            burst.is_some()
                        );
                        let mut ctx = ctx_with(fault, seed);
                        match protocol.try_run(&mut ctx) {
                            Ok(report) => {
                                ctx.assert_complete();
                                let c = &report.counters;
                                assert_eq!(c.polls as usize, N, "{label}");
                                if downlink > 0.0 {
                                    assert!(c.downlink_losses > 0, "{label}");
                                }
                                if corruption > 0.0 {
                                    assert!(c.corrupted_replies > 0, "{label}");
                                }
                                totals.downlink_losses += c.downlink_losses;
                                totals.corrupted_replies += c.corrupted_replies;
                                totals.retransmissions += c.retransmissions;
                                totals.desync_recoveries += c.desync_recoveries;
                            }
                            Err(PollingError::Stalled {
                                partial_report,
                                uncollected,
                                ..
                            }) => {
                                // A stall at these survivable rates would be
                                // a bug for the polling family, but whatever
                                // the verdict, the partial state must be
                                // coherent.
                                assert_eq!(
                                    partial_report.counters.polls as usize + uncollected.len(),
                                    N,
                                    "{label}: partial report inconsistent"
                                );
                                panic!("{label}: stalled at a survivable fault rate");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(totals.downlink_losses > 0, "no downlink losses injected");
    assert!(
        totals.corrupted_replies > 0,
        "no corrupted replies injected"
    );
    assert!(
        totals.retransmissions > 0,
        "no NAK retransmissions happened"
    );
    assert!(
        totals.desync_recoveries > 0,
        "no desync recoveries happened"
    );
}

/// The clock is whole nanoseconds: under loss, corruption, bursts, a dead
/// tag and recovery backoff, every protocol's total is exactly the sum of its
/// breakdown, trace time never runs backwards, and every JSONL timestamp
/// is decimal µs with at most three fraction digits and no exponent.
///
/// The trace also folds into the counters, before and after a JSONL round
/// trip; this is the one traced run where recovery passes and backoff
/// fire. Every run degrades, and the last point of the trace's coverage
/// series is the `Degraded` coverage, whatever ended the run.
#[test]
fn every_protocol_keeps_an_exact_clock_under_faults() {
    let fault = FaultModel::perfect()
        .with_downlink_loss(0.15)
        .with_corruption(0.3)
        .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8))
        // A dead tag stalls every pass, so recovery backs off on the clock.
        .with_plan(FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 0,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        });
    let mut backoff_us = 0;
    for protocol in all_protocols() {
        // At 500 tags EHPP announces per-circle subsets, not the population.
        for (n, seed) in [(N, 1), (N, 99), (500, 7)] {
            let scenario = Scenario::uniform(n, 4).with_seed(seed);
            let cfg = SimConfig::paper(scenario.protocol_seed())
                .with_fault(fault.clone())
                .with_trace();
            let mut ctx = SimContext::new(scenario.build_population(), &cfg);
            let policy = RecoveryPolicy::unbounded()
                .with_max_passes(4)
                .with_backoff(1_000, 4_000);
            // The deadline bounds the identification protocols, which
            // keep splitting around a dead tag within one pass.
            let end = Session::open(protocol.as_ref(), &ctx)
                .with_policy(policy)
                .with_deadline(Micros::from_secs(2.0))
                .run(&mut ctx);
            let label = format!("{} n={n} seed={seed}", protocol.name());
            assert!(
                ctx.uncollected_handles().contains(&0),
                "{label}: the killed tag was collected"
            );
            support::assert_trace_folds_into(&label, &ctx.log, &ctx.counters);
            let metrics = metrics_from_log(&ctx.log);
            // The dead tag degrades every run. The series samples coverage
            // at each recovery pass and once at the end.
            let SessionEnd::Degraded { coverage, .. } = &end else {
                panic!("{label}: a dead tag must degrade the session, got {end:?}");
            };
            let series = metrics
                .series("coverage_pct")
                .unwrap_or_else(|| panic!("{label}: a degraded end leaves a coverage series"));
            assert_eq!(
                series.points.len() as u64,
                end.passes(),
                "{label}: one coverage point per recovery pass, plus the end"
            );
            let traced = series.last().unwrap();
            assert!(
                (traced.value - coverage * 100.0).abs() < 1e-9,
                "{label}: trace coverage {} is not the Degraded {coverage}",
                traced.value
            );
            let report = Report::from_context(protocol.name(), &ctx);
            assert_eq!(report.total_time, report.breakdown.total(), "{label}");
            backoff_us += report.counters.recovery_backoff_us;
            let events = ctx.log.events();
            assert!(!events.is_empty(), "{label}: nothing traced");
            assert!(
                events
                    .iter()
                    .zip(events.iter().skip(1))
                    .all(|(a, b)| a.at <= b.at),
                "{label}: trace time ran backwards"
            );
            assert!(events.last().unwrap().at <= ctx.clock.total(), "{label}");
            let jsonl = ctx.log.to_jsonl();
            let reimported = EventLog::from_jsonl(&jsonl).expect("trace re-parses");
            assert_eq!(
                Counters::from_events(&reimported),
                Counters::from_events(ctx.log.events()),
                "{label}: the JSONL round trip changed the fold"
            );
            for line in jsonl.lines() {
                let at = line
                    .strip_prefix("{\"at\":")
                    .and_then(|rest| rest.split(',').next())
                    .unwrap_or_else(|| panic!("{label}: no leading at in {line}"));
                let (whole, fraction) = at.split_once('.').unwrap_or((at, ""));
                assert!(
                    whole.bytes().all(|b| b.is_ascii_digit())
                        && fraction.len() <= 3
                        && fraction.bytes().all(|b| b.is_ascii_digit()),
                    "{label}: timestamp {at} is not decimal µs with at most three fraction digits"
                );
            }
        }
    }
    assert!(backoff_us > 0, "no run idled through a recovery backoff");
}

/// The trace→counter fold holds whatever the fault model draws, whether
/// the run completes or stalls.
#[test]
fn traces_fold_into_counters_under_random_fault_models() {
    prop::check("trace fold under random fault models", 48, |g| {
        let n = g.len_in(1, 120);
        let seed = g.u64();
        let mut fault = FaultModel::perfect()
            .with_downlink_loss(g.f64_in(0.0, 0.4))
            .with_corruption(g.f64_in(0.0, 0.4))
            .with_max_poll_retries(g.u64_in(1, 4) as u32);
        if g.bool() {
            fault = fault.with_burst(GilbertElliott::new(
                g.f64_in(0.05, 0.3),
                g.f64_in(0.2, 0.8),
                0.0,
                g.f64_in(0.5, 0.9),
            ));
        }
        let protocol = &protocols()[g.u64_below(4) as usize];
        let scenario = Scenario::uniform(n, 1).with_seed(seed);
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_trace()
            .with_fault(fault);
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let _ = protocol.try_run(&mut ctx);
        let label = format!("{} (n={n}, seed={seed})", protocol.name());
        support::assert_trace_folds_into(&label, &ctx.log, &ctx.counters);
        Ok(())
    });
}

#[test]
fn moderate_faults_collect_every_payload_intact() {
    // Corruption is detected by CRC and retried, loss is retried in later
    // rounds — neither may ever corrupt what the reader stores.
    let fault = FaultModel::perfect()
        .with_downlink_loss(0.2)
        .with_corruption(0.2);
    for protocol in &protocols() {
        let scenario = Scenario::uniform(N, 8).with_seed(5);
        let reference = scenario.build_population();
        let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault.clone());
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let outcome = collect(Session::open(protocol.as_ref(), &ctx), &mut ctx);
        assert!(
            outcome.end.is_complete(),
            "{}: {:?}",
            protocol.name(),
            outcome.end
        );
        for (h, id) in reference.ids().enumerate() {
            assert_eq!(
                outcome.payload_of(id),
                Some(&reference.info(h)),
                "{} corrupted payload of {}",
                protocol.name(),
                id
            );
        }
    }
}

/// A jammed downlink stalls every protocol, and its postmortem bundle
/// parses and names the failure.
#[test]
fn jammed_downlink_stalls_every_protocol_without_panicking() {
    for protocol in &protocols() {
        let name = protocol.name();
        let scenario = Scenario::uniform(N, 4).with_seed(7);
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_downlink_loss(1.0));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let end = Session::open(protocol.as_ref(), &ctx).run(&mut ctx);
        match &end {
            SessionEnd::Stalled(err) => {
                let PollingError::Stalled {
                    partial_report,
                    uncollected,
                    ..
                } = err;
                assert_eq!(partial_report.counters.polls, 0, "{name}");
                assert_eq!(uncollected.len(), N, "{name}");
                assert!(err.to_string().contains("stalled"), "{name}");
            }
            other => panic!("{name} did not stall on a jammed downlink: {other:?}"),
        }
        let report = end.report();
        let bundle = postmortem(
            &report.protocol,
            "stalled",
            &cfg,
            &ctx,
            None,
            report.to_json(),
            end.passes(),
            end.coverage(),
        );
        let bundle = FlightBundle::parse(&bundle)
            .unwrap_or_else(|e| panic!("{name}: the bundle does not parse: {e}"));
        assert_eq!(bundle.cause, "stalled", "{name}");
        assert_eq!(bundle.protocol, name);
        assert_eq!(
            bundle.coverage, 0.0,
            "{name}: a jammed downlink collected a tag"
        );
    }
}

#[test]
fn a_killed_tag_stalls_the_run_with_exactly_one_uncollected() {
    // Kill rule with zero allowed replies: tag 17 dies before it ever
    // transmits, so every protocol collects the other N-1 and then stalls.
    let plan = FaultPlan {
        kill_after_replies: vec![KillRule {
            tag: 17,
            after_replies: 0,
        }],
        ..FaultPlan::none()
    };
    for protocol in &protocols() {
        let mut ctx = ctx_with(FaultModel::perfect().with_plan(plan.clone()), 3);
        let killed_id = ctx.population.id(17);
        match protocol.try_run(&mut ctx) {
            Ok(_) => panic!("{} collected a dead tag", protocol.name()),
            Err(PollingError::Stalled {
                partial_report,
                uncollected,
                ..
            }) => {
                assert_eq!(uncollected, vec![killed_id], "{}", protocol.name());
                assert_eq!(
                    partial_report.counters.polls as usize,
                    N - 1,
                    "{}",
                    protocol.name()
                );
            }
        }
    }
}

/// A masked collision (all but one reply lost) prunes a Query Tree subtree
/// that still holds tags. The pass must stall once its stack drains, not
/// report a completion, and a recovery pass from the root finishes the job.
#[test]
fn query_tree_stalls_instead_of_completing_with_tags_unread() {
    let mut stalls = 0;
    for seed in 1..=5 {
        let scenario = Scenario::uniform(N, 4).with_seed(seed);
        let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel::lossy(0.2));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        match QueryTreeConfig.try_run(&mut ctx) {
            Ok(report) => assert_eq!(report.counters.polls as usize, N, "seed {seed}"),
            Err(PollingError::Stalled {
                partial_report,
                uncollected,
                cause,
            }) => {
                stalls += 1;
                assert_eq!(cause, StallCause::NoProgress, "seed {seed}");
                assert_eq!(
                    partial_report.counters.polls as usize + uncollected.len(),
                    N,
                    "seed {seed}"
                );
            }
        }
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let end = Session::open(&QueryTreeConfig, &ctx)
            .with_policy(RecoveryPolicy::unbounded())
            .run(&mut ctx);
        assert!(end.is_complete(), "seed {seed}: {end:?}");
    }
    assert!(stalls > 0, "no masked collision stranded a subtree");
}

#[test]
fn aliens_and_faults_compose() {
    // 100 known tags, 30 aliens in the zone, plus downlink loss and
    // corruption: the adaptive interference run still reads every known tag.
    let fault = FaultModel::perfect()
        .with_downlink_loss(0.2)
        .with_corruption(0.2);
    let scenario = Scenario::uniform(130, 1).with_seed(21);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault);
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let known: Vec<usize> = (0..100).collect();
    let r = run_hpp_with_aliens(&mut ctx, &known, 100_000).expect("recovers");
    assert_eq!(r.report.counters.polls, 100);
    for &k in &known {
        assert!(!ctx.population.is_active(k), "known tag {k} unread");
    }
    assert!(r.report.counters.downlink_losses > 0);
}

#[test]
fn perfect_fault_model_changes_nothing() {
    // `FaultModel::perfect()` must consume zero extra randomness: a run
    // with the explicit perfect model is bit-identical to the default.
    for protocol in &protocols() {
        let scenario = Scenario::uniform(N, 1).with_seed(13);
        let mut plain = SimContext::new(
            scenario.build_population(),
            &SimConfig::paper(scenario.protocol_seed()),
        );
        let mut explicit = SimContext::new(
            scenario.build_population(),
            &SimConfig::paper(scenario.protocol_seed()).with_fault(FaultModel::perfect()),
        );
        let a = protocol.run(&mut plain);
        let b = protocol.run(&mut explicit);
        assert_eq!(a.total_time, b.total_time, "{}", protocol.name());
        assert_eq!(
            a.counters.reader_bits,
            b.counters.reader_bits,
            "{}",
            protocol.name()
        );
        assert_eq!(a.counters.polls, b.counters.polls, "{}", protocol.name());
    }
}
