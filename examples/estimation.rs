//! Cardinality estimation before inventory: sizing an unknown population.
//!
//! ```text
//! cargo run --release --example estimation
//! ```
//!
//! The paper's protocols assume the reader knows every tag ID. When a
//! reader first encounters an unknown field it must *size* it — here with
//! the multi-frame zero-estimator protocol (geometric coarse pass +
//! persistence-thinned refinement frames), whose output then seeds the
//! initial frame of a dynamic ALOHA identification pass.

use fast_rfid_polling::baselines::FsaConfig;
use fast_rfid_polling::estimate::EstimationProtocol;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};

fn main() {
    println!("unknown-field sizing with the zero-estimator protocol\n");
    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>12}",
        "true n", "coarse", "estimate", "error", "air time"
    );
    for (n, seed) in [(500usize, 1u64), (5_000, 2), (20_000, 3), (80_000, 4)] {
        let scenario = Scenario::uniform(n, 1).with_seed(seed);
        let mut ctx = SimContext::new(
            scenario.build_population(),
            &SimConfig::paper(scenario.protocol_seed()),
        );
        let result = EstimationProtocol.run(&mut ctx);
        let err = (result.estimate - n as f64).abs() / n as f64 * 100.0;
        println!(
            "{n:>8} {:>12.0} {:>12.0} {err:>7.1}% {:>12}",
            result.coarse,
            result.estimate,
            result.time.to_string()
        );
    }

    // Use the estimate to seed identification of the unknown field: a
    // dynamic FSA whose first frame matches the estimated cardinality.
    let n = 20_000usize;
    let scenario = Scenario::uniform(n, 1).with_seed(7);
    let mut ctx = SimContext::new(
        scenario.build_population(),
        &SimConfig::paper(scenario.protocol_seed()),
    );
    let est = EstimationProtocol.run(&mut ctx);
    println!(
        "\nseeding DFSA identification of {n} unknown tags with n̂ = {:.0}:",
        est.estimate
    );
    let fsa = FsaConfig::default();
    let outcome = collect(Session::open(&fsa, &ctx), &mut ctx);
    assert!(outcome.end.is_complete());
    let report = outcome.report();
    println!(
        "  estimation {} + identification {} = {} total",
        est.time,
        report.total_time - est.time,
        report.total_time
    );
    println!(
        "  ({} frames, {:.1} % slots wasted — the overhead the paper's polling removes)",
        report.counters.rounds,
        (report.counters.empty_slots + report.counters.collision_slots) as f64
            / (report.counters.empty_slots
                + report.counters.collision_slots
                + report.counters.polls) as f64
            * 100.0
    );
}
