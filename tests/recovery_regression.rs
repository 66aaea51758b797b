//! Seeded recovery regression — passes-to-completion is pinned.
//!
//! Each paper protocol runs with a deliberately small per-pass budget under
//! a fixed fault model and seed, so the recovery layer has to re-poll
//! across several passes. The fault models are i.i.d. downlink loss, a
//! Gilbert–Elliott burst channel and reply corruption. The pass counts are
//! deterministic functions of (protocol, fault, seed); pinning them catches
//! any silent change to the recovery loop, the backoff rng draws, or the
//! fault model's consumption of randomness.

use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};

const N: usize = 1_000;
const SEED: u64 = 97;

/// The fault models every protocol is pinned under, in pin order: downlink
/// loss 0.05, 0.2 and 0.5, a bursty channel, and 30 % reply corruption.
fn faults() -> [FaultModel; 5] {
    let loss = |rate| FaultModel::perfect().with_downlink_loss(rate);
    [
        loss(0.05),
        loss(0.2),
        loss(0.5),
        FaultModel::perfect().with_burst(GilbertElliott::new(0.05, 0.25, 0.0, 0.95)),
        FaultModel::perfect().with_corruption(0.3),
    ]
}

fn recovered_passes(protocol: &dyn PollingProtocol, fault: FaultModel) -> u64 {
    let scenario = Scenario::uniform(N, 1).with_seed(SEED);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault.clone());
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let outcome = Session::open(protocol, &ctx)
        .with_policy(RecoveryPolicy::unbounded())
        .run(&mut ctx);
    assert!(
        outcome.is_complete(),
        "{} did not converge under {fault:?}",
        protocol.name()
    );
    assert_eq!(
        outcome.report().counters.polls,
        N as u64,
        "{} converged without polling every tag",
        protocol.name()
    );
    assert_eq!(
        ctx.counters.recovery_passes + 1,
        outcome.passes(),
        "pass accounting out of sync"
    );
    outcome.passes()
}

#[test]
fn hpp_passes_to_completion_are_pinned() {
    let hpp = HppConfig { max_rounds: 12 };
    let got: Vec<u64> = faults()
        .into_iter()
        .map(|fault| recovered_passes(&hpp, fault))
        .collect();
    assert_eq!(
        got,
        vec![1, 2, 5, 1, 1],
        "HPP passes at loss 0.05/0.2/0.5, burst, corruption 0.3"
    );
}

#[test]
fn ehpp_passes_to_completion_are_pinned() {
    let ehpp = EhppConfig {
        max_circles: 3,
        ..EhppConfig::default()
    };
    let got: Vec<u64> = faults()
        .into_iter()
        .map(|fault| recovered_passes(&ehpp, fault))
        .collect();
    assert_eq!(
        got,
        vec![2, 2, 2, 2, 2],
        "EHPP passes at loss 0.05/0.2/0.5, burst, corruption 0.3"
    );
}

#[test]
fn tpp_passes_to_completion_are_pinned() {
    let tpp = TppConfig {
        max_rounds: 24,
        ..TppConfig::default()
    };
    let got: Vec<u64> = faults()
        .into_iter()
        .map(|fault| recovered_passes(&tpp, fault))
        .collect();
    assert_eq!(
        got,
        vec![1, 2, 3, 1, 1],
        "TPP passes at loss 0.05/0.2/0.5, burst, corruption 0.3"
    );
}

#[test]
fn pass_counts_are_stable_across_reruns() {
    // The same (protocol, loss, seed) triple must give the same pass count
    // on every invocation — no hidden global state.
    let hpp = HppConfig { max_rounds: 24 };
    let lossy = || FaultModel::perfect().with_downlink_loss(0.2);
    assert_eq!(
        recovered_passes(&hpp, lossy()),
        recovered_passes(&hpp, lossy())
    );
}
