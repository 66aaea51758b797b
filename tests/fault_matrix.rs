//! Combined-impairment matrix: every protocol, under every mix of downlink
//! loss, payload corruption, and burst loss, either collects all tags
//! exactly once or returns a consistent `PollingError::Stalled` — it never
//! panics and never double-collects (a double `mark_read` would panic
//! inside the population, so a green run proves exactly-once).

use fast_rfid_polling::apps::info_collect::collect;
use fast_rfid_polling::apps::unknown::run_hpp_with_aliens;
use fast_rfid_polling::baselines::MicConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{KillRule, SimConfig, SimContext};

const N: usize = 150;

fn protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
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
    for protocol in &protocols() {
        for downlink in [0.0f64, 0.3] {
            for corruption in [0.0f64, 0.3] {
                for burst in bursts {
                    let mut fault = FaultModel::perfect()
                        .with_downlink_loss(downlink)
                        .with_corruption(corruption);
                    if let Some(ge) = burst {
                        fault = fault.with_burst(ge);
                    }
                    let label = format!(
                        "{} dl={downlink} corr={corruption} burst={}",
                        protocol.name(),
                        burst.is_some()
                    );
                    let mut ctx = ctx_with(fault, 99);
                    match protocol.try_run(&mut ctx) {
                        Ok(report) => {
                            ctx.assert_complete();
                            assert_eq!(report.counters.polls as usize, N, "{label}");
                            if downlink > 0.0 {
                                assert!(report.counters.downlink_losses > 0, "{label}");
                            }
                            if corruption > 0.0 {
                                assert!(report.counters.corrupted_replies > 0, "{label}");
                            }
                        }
                        Err(PollingError::Stalled {
                            partial_report,
                            uncollected,
                            ..
                        }) => {
                            // A stall at these survivable rates would be a
                            // bug for the polling family, but whatever the
                            // verdict, the partial state must be coherent.
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
        for (_, tag) in reference.iter() {
            assert_eq!(
                outcome.payload_of(tag.id),
                Some(&tag.info),
                "{} corrupted payload of {}",
                protocol.name(),
                tag.id
            );
        }
    }
}

#[test]
fn jammed_downlink_stalls_every_protocol_without_panicking() {
    for protocol in &protocols() {
        let mut ctx = ctx_with(FaultModel::perfect().with_downlink_loss(1.0), 7);
        match protocol.try_run(&mut ctx) {
            Ok(_) => panic!("{} completed on a jammed downlink", protocol.name()),
            Err(err @ PollingError::Stalled { .. }) => {
                let PollingError::Stalled {
                    partial_report,
                    uncollected,
                    ..
                } = &err;
                assert_eq!(partial_report.counters.polls, 0, "{}", protocol.name());
                assert_eq!(uncollected.len(), N, "{}", protocol.name());
                assert!(err.to_string().contains("stalled"), "{}", protocol.name());
            }
        }
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
        let killed_id = ctx.population.get(17).id;
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
        assert!(!ctx.population.get(k).is_active(), "known tag {k} unread");
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
