//! Satellite: seeded recovery regression — passes-to-completion is pinned.
//!
//! Each paper protocol runs with a deliberately small per-pass budget under
//! a fixed downlink-loss rate and seed, so the recovery layer has to
//! re-poll across several passes. The pass counts are deterministic
//! functions of (protocol, loss, seed); pinning them catches any silent
//! change to the recovery loop, the backoff rng draws, or the fault model's
//! consumption of randomness.

use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};

const N: usize = 1_000;
const SEED: u64 = 97;

fn recovered_passes(protocol: &dyn PollingProtocol, loss: f64) -> u64 {
    let scenario = Scenario::uniform(N, 1).with_seed(SEED);
    let cfg = SimConfig::paper(scenario.protocol_seed())
        .with_fault(FaultModel::perfect().with_downlink_loss(loss));
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let outcome = Session::open(protocol, &ctx)
        .with_policy(RecoveryPolicy::unbounded())
        .run(&mut ctx);
    assert!(
        outcome.is_complete(),
        "{} did not converge at loss {loss}",
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
    let hpp = HppConfig {
        max_rounds: 12,
        ..HppConfig::default()
    };
    let got: Vec<u64> = [0.05, 0.2, 0.5]
        .iter()
        .map(|&loss| recovered_passes(&hpp, loss))
        .collect();
    assert_eq!(got, vec![1, 2, 5], "HPP passes at loss 0.05/0.2/0.5");
}

#[test]
fn ehpp_passes_to_completion_are_pinned() {
    let ehpp = EhppConfig {
        max_circles: 3,
        ..EhppConfig::default()
    };
    let got: Vec<u64> = [0.05, 0.2, 0.5]
        .iter()
        .map(|&loss| recovered_passes(&ehpp, loss))
        .collect();
    assert_eq!(got, vec![2, 2, 2], "EHPP passes at loss 0.05/0.2/0.5");
}

#[test]
fn tpp_passes_to_completion_are_pinned() {
    let tpp = TppConfig {
        max_rounds: 24,
        ..TppConfig::default()
    };
    let got: Vec<u64> = [0.05, 0.2, 0.5]
        .iter()
        .map(|&loss| recovered_passes(&tpp, loss))
        .collect();
    assert_eq!(got, vec![1, 2, 3], "TPP passes at loss 0.05/0.2/0.5");
}

#[test]
fn pass_counts_are_stable_across_reruns() {
    // The same (protocol, loss, seed) triple must give the same pass count
    // on every invocation — no hidden global state.
    let hpp = HppConfig {
        max_rounds: 24,
        ..HppConfig::default()
    };
    assert_eq!(recovered_passes(&hpp, 0.2), recovered_passes(&hpp, 0.2));
}
