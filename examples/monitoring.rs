//! A warehouse day: continuous inventory monitoring over a churning
//! population.
//!
//! ```text
//! cargo run --release --example monitoring
//! ```
//!
//! The reader starts with a fully identified floor of 3 000 tags, then runs
//! hourly epochs while pallets ship out and deliveries arrive (a "busy
//! dock" churn model). Each epoch combines missing-tag identification
//! (TPP-style polling over the known list) with Query-Tree discovery of
//! newcomers — the complete identify-once, poll-forever workflow the paper
//! advocates.

use fast_rfid_polling::apps::monitor::InventoryMonitor;
use fast_rfid_polling::hash::{split_seed, Xoshiro256};
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};
use fast_rfid_polling::workloads::ChurnModel;

fn main() {
    let initial = 3_000usize;
    let epochs = 8usize;
    let churn = ChurnModel::busy();

    // The floor on day start — already identified.
    let scenario = Scenario::uniform(initial, 1).with_seed(2024);
    let mut floor: Vec<TagId> = scenario.build_population().ids().collect();
    let mut monitor = InventoryMonitor::new(floor.clone());
    let mut churn_rng = Xoshiro256::seed_from_u64(split_seed(2024, 9));

    println!("warehouse day: {initial} tags, busy-dock churn, {epochs} hourly epochs\n");
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>10} {:>12}",
        "epoch", "floor", "missing", "newcomers", "list size", "air time"
    );

    let mut total_air = fast_rfid_polling::c1g2::Micros::ZERO;
    for epoch in 1..=epochs {
        // The world moves: departures and arrivals since the last sweep.
        let (remaining, _departed, arrivals) = churn.evolve(&floor, &mut churn_rng);
        floor = remaining;
        floor.extend(&arrivals);

        // The reader sweeps the floor as it now stands.
        let present = TagPopulation::new(floor.iter().map(|&id| (id, BitVec::from_value(1, 1))));
        let mut ctx = SimContext::new(present, &SimConfig::paper(split_seed(7, epoch as u64)));
        let report = monitor.epoch(&mut ctx);
        total_air += report.time;

        println!(
            "{epoch:>6} {:>8} {:>9} {:>10} {:>10} {:>12}",
            floor.len(),
            report.missing.len(),
            report.newcomers.len(),
            monitor.known_ids().len(),
            report.time.to_string(),
        );

        // The reader's list must exactly track the floor after each epoch.
        let mut list = monitor.known_ids();
        let mut truth = floor.clone();
        list.sort();
        truth.sort();
        assert_eq!(list, truth, "monitor lost track of the floor");
    }

    println!("\ntotal air time for the day: {total_air}");
    println!("the reader's list tracked every arrival and departure exactly.");
}
