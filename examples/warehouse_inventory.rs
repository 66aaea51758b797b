//! Warehouse inventory: multi-reader missing-tag identification.
//!
//! ```text
//! cargo run --release --example warehouse_inventory
//! ```
//!
//! A 40 m × 20 m warehouse with a 4×2 reader grid and 2 000 tags on
//! clustered category IDs. 3 % of the tags have gone missing; the readers
//! are scheduled by conflict-graph coloring and each identifies its missing
//! tags by TPP-style presence polling.

use fast_rfid_polling::apps::missing::{MissingStrategy, MissingTagApp};
use fast_rfid_polling::apps::multi_reader::DeploymentPlan;
use fast_rfid_polling::hash::split_seed;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};

fn main() {
    let n = 2_000;
    let missing = 60;
    let scenario = Scenario::uniform(n, 1)
        .with_seed(77)
        .with_ids(IdDistribution::Clustered { categories: 12 });

    // Who is actually on the shelves vs what the inventory list expects.
    let (expected, present) = scenario.split_missing(missing);
    println!("warehouse: {n} expected tags, {missing} missing\n");

    // Plan the reader deployment and schedule.
    let plan = DeploymentPlan::grid(4, 2, 40.0, 20.0);
    let colors = plan.color_schedule();
    let num_colors = colors.iter().max().unwrap() + 1;
    println!(
        "{} readers, conflict graph colored with {num_colors} colors:",
        plan.readers.len()
    );
    for (i, (zone, color)) in plan.readers.iter().zip(&colors).enumerate() {
        println!(
            "  reader {i} at ({:>4.1}, {:>4.1}) r={:.1}  → slot {color}",
            zone.x, zone.y, zone.radius
        );
    }

    // Claim present tags per reader and run missing-tag identification in
    // each zone. Expected-but-absent tags are checked by the reader whose
    // zone their last known position falls in — here: round-robin over
    // claims of the full expected list.
    let claims = plan.claim_tags(expected.len(), scenario.seed);
    let present_ids: std::collections::HashSet<TagId> = present.ids().collect();

    let app = MissingTagApp {
        strategy: MissingStrategy::Tpp,
        ..MissingTagApp::default()
    };
    let mut all_missing = Vec::new();
    let mut per_color_time = vec![fast_rfid_polling::c1g2::Micros::ZERO; num_colors];

    for (r, claim) in claims.iter().enumerate() {
        let zone_expected: Vec<TagId> = claim.iter().map(|&t| expected[t]).collect();
        let zone_present = TagPopulation::new(
            zone_expected
                .iter()
                .filter(|id| present_ids.contains(id))
                .map(|&id| (id, BitVec::from_value(1, 1))),
        );
        let mut ctx = SimContext::new(zone_present, &SimConfig::paper(split_seed(77, r as u64)));
        let report = app.run(&mut ctx, &zone_expected);
        println!(
            "  reader {r}: {} expected, {} present, {} missing, {} on air",
            zone_expected.len(),
            report.present.len(),
            report.missing.len(),
            report.total_time
        );
        let c = colors[r];
        per_color_time[c] = per_color_time[c].max(report.total_time);
        all_missing.extend(report.missing);
    }

    let makespan: fast_rfid_polling::c1g2::Micros = per_color_time.iter().copied().sum();
    all_missing.sort();
    println!(
        "\nidentified {} missing tags in {makespan} wall-clock",
        all_missing.len()
    );
    for id in all_missing.iter().take(5) {
        println!("  missing: {id}");
    }
    if all_missing.len() > 5 {
        println!("  … and {} more", all_missing.len() - 5);
    }
    assert_eq!(all_missing.len(), missing, "identification must be exact");
}
