//! Robustness under channel impairments: reply loss, downlink loss, burst
//! loss, and alien-tag interference.
//!
//! ```text
//! cargo run --release --example lossy_channel
//! ```
//!
//! The paper evaluates a perfect channel; this example stresses the
//! protocols beyond it. Polling retries lost replies in later rounds, so
//! every tag is still read — the cost curves below show how gracefully each
//! protocol absorbs uplink loss, downlink (command) loss with tag desync,
//! and Gilbert–Elliott burst loss, and the last part shows HPP's adaptive
//! index widening coping with unknown (alien) tags in the zone.

use fast_rfid_polling::apps::unknown::run_hpp_with_aliens;
use fast_rfid_polling::baselines::MicConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{Channel, SimConfig, SimContext};

/// Runs `protocol` to completion through a bare session; every loss rate
/// shown here is survivable, so anything else is a bug.
fn collect_all(protocol: &dyn PollingProtocol, ctx: &mut SimContext) -> Collection {
    let outcome = collect(Session::open(protocol, ctx), ctx);
    assert!(outcome.end.is_complete(), "{:?}", outcome.end);
    outcome
}

fn main() {
    let n = 2_000usize;
    println!("reply-loss sweep — {n} tags, 1-bit payloads\n");
    println!("{:>6} {:>12} {:>12} {:>12}", "loss", "TPP", "HPP", "MIC");
    for loss in [0.0f64, 0.1, 0.2, 0.3, 0.5] {
        let mut row = Vec::new();
        for protocol in [
            &TppConfig::default() as &dyn PollingProtocol,
            &HppConfig::default(),
            &MicConfig::default(),
        ] {
            let scenario = Scenario::uniform(n, 1).with_seed(42);
            let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel::lossy(loss));
            let mut ctx = SimContext::new(scenario.build_population(), &cfg);
            let outcome = collect_all(protocol, &mut ctx);
            assert_eq!(outcome.report().counters.polls as usize, n);
            row.push(outcome.report().total_time.as_secs());
        }
        println!(
            "{loss:>6.1} {:>11.3}s {:>11.3}s {:>11.3}s",
            row[0], row[1], row[2]
        );
    }
    println!("\nall tags read at every loss rate — polling retries, never loses.");

    println!("\ndownlink-loss sweep — {n} tags, HPP; missed commands desync tags\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "loss", "time", "desyncs", "recoveries"
    );
    for loss in [0.0f64, 0.1, 0.2, 0.3] {
        let scenario = Scenario::uniform(n, 1).with_seed(42);
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_downlink_loss(loss));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let outcome = collect_all(&HppConfig::default(), &mut ctx);
        assert_eq!(outcome.report().counters.polls as usize, n);
        let c = &outcome.report().counters;
        println!(
            "{loss:>6.1} {:>11.3}s {:>12} {:>12}",
            outcome.report().total_time.as_secs(),
            c.downlink_losses,
            c.desync_recoveries
        );
    }
    println!("\na desynced tag sits out the round and re-joins at the next init it hears.");

    println!("\nburst-loss sweep — {n} tags, TPP on a Gilbert–Elliott channel\n");
    println!("{:>10} {:>12} {:>12}", "bad-state", "time", "lost");
    for (p_enter, p_exit) in [(0.0f64, 1.0f64), (0.05, 0.5), (0.1, 0.3), (0.2, 0.2)] {
        let scenario = Scenario::uniform(n, 1).with_seed(42);
        let burst = GilbertElliott::new(p_enter, p_exit, 0.0, 0.8);
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_burst(burst));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let outcome = collect_all(&TppConfig::default(), &mut ctx);
        assert_eq!(outcome.report().counters.polls as usize, n);
        // Fraction of time spent in the bad state ~ p_enter/(p_enter+p_exit).
        let bad = p_enter / (p_enter + p_exit);
        println!(
            "{bad:>10.2} {:>11.3}s {:>12}",
            outcome.report().total_time.as_secs(),
            outcome.report().counters.lost_replies
        );
    }
    println!("\nclustered losses cost more rounds than independent ones, never correctness.");

    println!("\nalien-tag interference — 1 000 known tags, HPP with adaptive h\n");
    println!(
        "{:>8} {:>12} {:>14} {:>8}",
        "aliens", "time", "collisions", "rounds"
    );
    for aliens in [0usize, 100, 500, 1_000, 2_000] {
        let pop = rfid_polling_population(1_000 + aliens);
        let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
        let known: Vec<usize> = (0..1_000).collect();
        let r = run_hpp_with_aliens(&mut ctx, &known, 100_000).expect("interference converges");
        println!(
            "{aliens:>8} {:>12} {:>14} {:>8}",
            r.report.total_time.to_string(),
            r.alien_collisions,
            r.rounds
        );
    }
    println!("\ninterference slows the inventory but never blocks it.");
}

fn rfid_polling_population(n: usize) -> TagPopulation {
    Scenario::uniform(n, 1).with_seed(11).build_population()
}
