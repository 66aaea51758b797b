//! Cross-crate correctness: every protocol must read every tag exactly once
//! and deliver uncorrupted payloads on every ID distribution.

use fast_rfid_polling::apps::info_collect::run_polling;
use fast_rfid_polling::baselines::{
    CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig,
};
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::workloads::PayloadKind;

fn all_protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(CppConfig::default().into_protocol()),
        Box::new(EcppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
        Box::new(FsaConfig::default().into_protocol()),
        Box::new(LowerBound),
    ]
}

fn distributions() -> Vec<IdDistribution> {
    vec![
        IdDistribution::UniformRandom,
        IdDistribution::Sequential { start: 0 },
        IdDistribution::Clustered { categories: 7 },
        IdDistribution::Zipf {
            categories: 20,
            exponent: 1.1,
        },
        IdDistribution::SharedPrefix { prefix_bits: 60 },
    ]
}

#[test]
fn every_protocol_completes_on_every_distribution() {
    for dist in distributions() {
        let scenario = Scenario::uniform(300, 8)
            .with_seed(42)
            .with_ids(dist.clone())
            .with_payload(PayloadKind::Random);
        let reference = scenario.build_population();
        for protocol in all_protocols() {
            let outcome = run_polling(protocol.as_ref(), &scenario);
            assert_eq!(
                outcome.report().counters.polls,
                300,
                "{} under {:?}",
                protocol.name(),
                dist
            );
            for (_, tag) in reference.iter() {
                assert_eq!(
                    outcome.payload_of(tag.id),
                    Some(&tag.info),
                    "{} corrupted {} under {:?}",
                    protocol.name(),
                    tag.id,
                    dist
                );
            }
        }
    }
}

#[test]
fn polling_protocols_never_waste_slots() {
    // The paper's core property: request/response is one-to-one, so the
    // polling family sees no empty and no collision slots (unlike ALOHA).
    let scenario = Scenario::uniform(400, 1).with_seed(7);
    let polling: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(CppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
    ];
    for protocol in polling {
        let outcome = run_polling(protocol.as_ref(), &scenario);
        assert_eq!(
            outcome.report().counters.empty_slots,
            0,
            "{}",
            protocol.name()
        );
        assert_eq!(
            outcome.report().counters.collision_slots,
            0,
            "{}",
            protocol.name()
        );
    }
    // And the ALOHA baselines do waste slots — the contrast the paper draws.
    let fsa = run_polling(&FsaConfig::default().into_protocol(), &scenario);
    assert!(fsa.report().counters.empty_slots > 0);
    assert!(fsa.report().counters.collision_slots > 0);
    let mic = run_polling(&MicConfig::default().into_protocol(), &scenario);
    assert!(mic.report().counters.empty_slots > 0);
    assert_eq!(
        mic.report().counters.collision_slots,
        0,
        "MIC's cascade is collision-free"
    );
}

#[test]
fn tiny_populations_are_handled() {
    for n in [1usize, 2, 3, 5] {
        let scenario = Scenario::uniform(n, 4).with_seed(n as u64);
        for protocol in all_protocols() {
            let outcome = run_polling(protocol.as_ref(), &scenario);
            assert_eq!(
                outcome.report().counters.polls,
                n as u64,
                "{} at n = {n}",
                protocol.name()
            );
        }
    }
}

#[test]
fn payload_widths_sweep() {
    for bits in [1usize, 8, 16, 32, 64, 96] {
        let scenario = Scenario::uniform(100, bits)
            .with_seed(bits as u64)
            .with_payload(PayloadKind::Random);
        let outcome = run_polling(&TppConfig::default().into_protocol(), &scenario);
        assert_eq!(outcome.report().counters.tag_bits, 100 * bits as u64);
    }
}
